package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/signguard/signguard/internal/aggregate"
	"github.com/signguard/signguard/internal/fl"
	"github.com/signguard/signguard/internal/tensor"
)

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	var spec benchmarkSpec
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// The -quick smoke run goes through all four workloads, timed and traced,
// and emits exactly the workloads and metrics BENCHMARK.json declares.
func TestQuickRunEmitsDeclaredMetrics(t *testing.T) {
	spec := loadSpec(t)
	dir := t.TempDir()
	out := filepath.Join(dir, "quick.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-quick", "-seed", "3", "-outdir", dir, "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d\n%s%s", code, stdout.String(), stderr.String())
	}
	var file resultFile
	if err := readJSON(out, &file); err != nil {
		t.Fatal(err)
	}

	var wantWorkloads, wantE2E, wantLayer []string
	for _, w := range spec.Workloads {
		wantWorkloads = append(wantWorkloads, w.Name)
	}
	for _, m := range spec.EndToEnd {
		wantE2E = append(wantE2E, m.Name)
	}
	for _, m := range spec.PerLayer {
		wantLayer = append(wantLayer, m.Name)
	}
	sort.Strings(wantE2E)
	sort.Strings(wantLayer)

	var gotWorkloads []string
	for _, w := range file.Workloads {
		gotWorkloads = append(gotWorkloads, w.Name)
		if !w.Correct || w.Failed != 0 || w.Attempted < 1 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d checks=%v", w.Name, w.Correct, w.Failed, w.Attempted, w.Checks)
		}
		if got := sortedKeys(w.EndToEnd); !reflect.DeepEqual(got, wantE2E) {
			t.Errorf("%s: end-to-end metrics %v, BENCHMARK.json declares %v", w.Name, got, wantE2E)
		}
		if got := sortedKeys(w.PerLayer); !reflect.DeepEqual(got, wantLayer) {
			t.Errorf("%s: per-layer metrics %v, BENCHMARK.json declares %v", w.Name, got, wantLayer)
		}
		for _, group := range []map[string]stat{w.EndToEnd, w.PerLayer} {
			for name, s := range group {
				if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
					t.Errorf("%s: %s = %v", w.Name, name, s.Value)
				}
			}
		}
		for name, s := range w.EndToEnd {
			if s.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, name, s.Value)
			}
		}
		if _, err := os.Stat(filepath.Join(dir, "trace-"+w.Name+".json")); err != nil {
			t.Errorf("%s: no trace written: %v", w.Name, err)
		}
	}
	if !reflect.DeepEqual(gotWorkloads, wantWorkloads) {
		t.Errorf("workloads %v, BENCHMARK.json declares %v", gotWorkloads, wantWorkloads)
	}
	if file.Header.Claim != nil {
		t.Errorf("the benchmark's own runs claim no gain, header says %q", *file.Header.Claim)
	}
	if !strings.Contains(stdout.String(), "closed loop") {
		t.Error("the run does not state that serve_mixed is a closed loop")
	}
}

// metrics.go and BENCHMARK.json declare the same names and units, and the
// run length and the command agree with the program.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	spec := loadSpec(t)
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, -seconds defaults to %d", spec.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(spec.Paths, []string{"bench"}) || !reflect.DeepEqual(spec.Command, []string{"go", "run", "./bench"}) {
		t.Errorf("command %v, paths %v", spec.Command, spec.Paths)
	}
	if len(spec.EndToEnd) != len(endToEndMetrics) || len(spec.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json declares %d + %d metrics, metrics.go %d + %d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEndMetrics), len(perLayerMetrics))
	}
	for i, m := range spec.EndToEnd {
		if d := endToEndMetrics[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %s [%s], metrics.go %s [%s]", i, m.Name, m.Unit, d.name, d.unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v out of (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range spec.PerLayer {
		if d := perLayerMetrics[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s [%s], metrics.go %s [%s]", i, m.Name, m.Unit, d.name, d.unit)
		}
	}
}

// The driver's form: one workload, -trace 0 or 1, and a result object on
// the last line holding every metric of the group.
func TestResultLine(t *testing.T) {
	for trace, defs := range map[string][]metricDef{"0": endToEndMetrics, "1": perLayerMetrics} {
		var stdout, stderr bytes.Buffer
		args := []string{"-quick", "-workload", "campaign_grid", "-seed", "2", "-seconds", "1", "-trace", trace, "-outdir", t.TempDir()}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("-trace %s: exit code %d\n%s", trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var line struct {
			Correct   *bool `json:"correct"`
			Attempted *int  `json:"attempted"`
			Failed    *int  `json:"failed"`
			Metrics   map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			} `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("-trace %s: last line %q: %v", trace, lines[len(lines)-1], err)
		}
		if line.Correct == nil || !*line.Correct || line.Attempted == nil || *line.Attempted < 1 || line.Failed == nil || *line.Failed != 0 {
			t.Errorf("-trace %s: %s", trace, lines[len(lines)-1])
		}
		if len(line.Metrics) != len(defs) {
			t.Errorf("-trace %s: %d metrics, want %d", trace, len(line.Metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := line.Metrics[d.name]; !ok || m.Value == nil || m.Unit != d.unit {
				t.Errorf("-trace %s: metric %s missing or malformed", trace, d.name)
			}
		}
	}
}

// A failed correctness check turns into a non-zero exit code.
func TestFailedCheckExitsNonZero(t *testing.T) {
	s := simSpecs(true)[0]
	s.accFloor = 101 // no run reaches 101% accuracy
	var stdout bytes.Buffer
	code, err := measure(options{seed: 1, trace: 0, quick: true, outDir: t.TempDir()}, []workload{s.workload()}, &stdout)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Errorf("exit code %d, want 1", code)
	}
	if !strings.Contains(stdout.String(), "CHECK FAILED: final accuracy") || !strings.Contains(stdout.String(), `"correct":false`) {
		t.Errorf("output does not report the failed check:\n%s", stdout.String())
	}
}

// The fl stage decorators change no output: the parameter digest of a
// traced unit equals that of the plain simulation fl.New resolves by
// itself, without even the round hook.
func TestStageDecoratorsAreTransparent(t *testing.T) {
	for _, s := range simSpecs(true) {
		inst, _, err := s.setup(env{seed: 5, workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		plain, err := inst.build(s.rounds, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := plain.Run(); err != nil {
			t.Fatal(err)
		}
		want := paramDigest(plain.Model().ParamVector())
		for _, tr := range []*tracer{nil, newTracer()} {
			u, err := inst.unit(tr)
			if err != nil {
				t.Fatal(err)
			}
			if u.digest != want {
				t.Errorf("%s (traced=%v): digest %.12s, plain run %.12s", s.name, tr != nil, u.digest, want)
			}
		}
	}
}

// The wrapped Defense is not a fl.RuleDefense, so fl.New reaches the rule's
// worker count through Config.Rule; and no workload's rule is a
// ServerLearner, which fl.New provisions only behind a bare RuleDefense.
func TestWrappedDefenseKeepsRuleReachable(t *testing.T) {
	for _, s := range simSpecs(true) {
		inst, _, err := s.setup(env{seed: 1, workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		sim, err := inst.build(s.rounds, &simTrace{tr: newTracer()}, nil)
		if err != nil {
			t.Fatal(err)
		}
		wrapped, ok := sim.Pipeline().Defense.(tracedDefense)
		if !ok {
			t.Fatalf("%s: defense stage is %T", s.name, sim.Pipeline().Defense)
		}
		rule := aggregate.Unwrap(wrapped.Defense.(fl.RuleDefense).Rule)
		if _, ok := rule.(aggregate.ServerLearner); ok {
			t.Errorf("%s: rule %s is a ServerLearner behind a wrapped Defense", s.name, rule.Name())
		}
		if mk, ok := rule.(*aggregate.MultiKrum); ok && mk.Workers != 3 {
			t.Errorf("%s: rule runs %d workers, want the configured 3", s.name, mk.Workers)
		}
	}
}

func TestRuleDecoratorIsTransparentAndForwardsWorkers(t *testing.T) {
	inner := aggregate.NewMultiKrum(2, 8)
	wrapped := &tracedRule{Rule: inner, tr: newTracer()}
	aggregate.SetWorkers(wrapped, 3)
	if inner.Workers != 3 {
		t.Errorf("SetWorkers did not reach the wrapped rule: %d workers", inner.Workers)
	}
	rng := tensor.NewRNG(1)
	grads := make([][]float64, 10)
	for i := range grads {
		grads[i] = tensor.RandNormal(rng, 64, 0, 1)
	}
	want, err := aggregate.NewMultiKrum(2, 8).Aggregate(grads)
	if err != nil {
		t.Fatal(err)
	}
	got, err := wrapped.Aggregate(grads)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || wrapped.Name() != inner.Name() {
		t.Errorf("decorated rule returned %+v, bare rule %+v", got, want)
	}
	if spans := wrapped.tr.snapshot(); len(spans) != 1 || spans[0].Name != "asyncfl.defense" || spans[0].OpID != 1 {
		t.Errorf("spans %+v", spans)
	}
}

// With one connection the arrival schedule is fixed, so the served model is
// a digest: the handler, Rule and transport decorators must not change it.
func TestServeDecoratorsAreTransparent(t *testing.T) {
	s := serveSpec{name: "serve", dim: 64, sessions: 60, updatesPerSession: 4, warmSessions: 2, replaySubmits: 64}
	inst, _, err := s.setup(env{seed: 9, workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := inst.unit(nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	traced, err := inst.unit(tr)
	if err != nil {
		t.Fatal(err)
	}
	if plain.digest == "" || plain.digest != traced.digest {
		t.Errorf("model digest %.12s without decorators, %.12s with", plain.digest, traced.digest)
	}
	if len(plain.checks)+len(traced.checks) != 0 || plain.failed+traced.failed != 0 {
		t.Errorf("checks %v %v, failed %d %d", plain.checks, traced.checks, plain.failed, traced.failed)
	}
	// Every handler span of a submit hangs off the client span that sent it.
	byID := map[int]span{}
	for _, sp := range traced.spans {
		byID[sp.ID] = sp
	}
	var handled int
	for _, sp := range traced.spans {
		if sp.Name != "transport.handler.update" {
			continue
		}
		handled++
		parent := byID[sp.Parent]
		if parent.Name != "client.submit" || parent.OpID != sp.OpID || sp.Start < parent.Start || sp.End > parent.End {
			t.Fatalf("handler span %+v under %+v", sp, parent)
		}
	}
	if handled != traced.attempted {
		t.Errorf("%d handler spans for %d submits", handled, traced.attempted)
	}
}

func TestHandlerDecoratorPassesThrough(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
		_, _ = w.Write([]byte(r.URL.Path))
	})
	tr := newTracer()
	rec := httptest.NewRecorder()
	tracedHandler{inner, tr}.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/x", nil))
	if rec.Code != http.StatusTeapot || rec.Body.String() != "/x" {
		t.Errorf("response %d %q", rec.Code, rec.Body.String())
	}
	if spans := tr.snapshot(); len(spans) != 1 || spans[0].Name != "transport.handler.other" {
		t.Errorf("spans %+v", spans)
	}
}

func TestQuartilesFollowPythonStatistics(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, med, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || med != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, med, q3)
	}
	if q1, med, q3 := quartiles([]float64{5, 3}); q1 != 2.5 || med != 4 || q3 != 5.5 {
		t.Errorf("two samples: %v %v %v", q1, med, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	spec := loadSpec(t)
	dir := t.TempDir()
	write := func(name string, opsPerS, q1, q3 float64, digest string) string {
		e2e := map[string]stat{}
		for _, m := range spec.EndToEnd {
			e2e[m.Name] = stat{Value: 1, Unit: m.Unit, Q1: 1, Q3: 1, N: 5}
		}
		e2e["ops_per_s"] = stat{Value: opsPerS, Unit: "1/s", Q1: q1, Q3: q3, N: 5}
		raw, err := json.Marshal(resultFile{Workloads: []*workloadResult{{Name: "w", Digest: digest, EndToEnd: e2e}}})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 100, 99, 101, "d1")
	for name, tc := range map[string]struct {
		path string
		want string
		code int
	}{
		"same":       {write("same.json", 99, 98, 100, "d1"), "ok", 0},
		"slower":     {write("slow.json", 50, 49.5, 50.5, "d1"), "worse", 1},
		"noisy":      {write("noisy.json", 100, 60, 140, "d1"), "unresolved", 1},
		"new digest": {write("digest.json", 100, 99, 101, "d2"), "worse", 1},
	} {
		var out bytes.Buffer
		code, err := compareFiles(&out, filepath.Join("..", "BENCHMARK.json"), base, tc.path)
		if err != nil {
			t.Fatal(err)
		}
		if code != tc.code || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: exit code %d, output\n%s", name, code, out.String())
		}
		if tc.code == 0 && (strings.Contains(out.String(), "worse") || strings.Contains(out.String(), "unresolved")) {
			t.Errorf("%s: unexpected verdict\n%s", name, out.String())
		}
	}
}

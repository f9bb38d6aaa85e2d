package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// env is what a run hands every workload.
type env struct {
	// seed derives every dataset, simulation, campaign and client-noise
	// seed; the program under test receives only generated inputs.
	seed int64
	// workers is the worker and connection count: min(nproc, 4).
	workers int
	// tmpDir holds scratch stores; it lives inside the checkout.
	tmpDir string
}

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name string
	// op names the operation ops_per_s, op_p50_ms, op_tail_ms and
	// alloc_mb_per_op count on this workload.
	op string
	// tailPct is the percentile op_tail_ms reports: the highest one that
	// keeps about ten samples of a unit beyond it.
	tailPct float64
	// setup builds the workload's inputs and runs one untimed warm-up
	// unit. It returns the instance the timed units run on and the named
	// parts of the set-up time, in seconds.
	setup func(e env) (instance, map[string]float64, error)
}

// instance runs units: a fixed amount of work, so counts repeat.
type instance interface {
	// unit runs one repeat. tr is nil when tracing is off; with a tracer
	// the decorators are installed and the per-layer metrics are filled.
	unit(tr *tracer) (*unitResult, error)
	close() error
}

// unitResult is what one repeat measured.
type unitResult struct {
	wall time.Duration
	// ops completed usefully (rounds, cells, accepted updates), operations
	// attempted and operations failed.
	ops, attempted, failed int
	// latMS holds the per-operation latencies in milliseconds.
	latMS   []float64
	allocMB float64
	// digest fingerprints the unit's output where it is deterministic for a
	// seed ("" otherwise); it must be identical across repeats.
	digest string
	// counts are exact for a seed and compared across result files.
	counts map[string]float64
	// checks lists the failed correctness checks.
	checks []string
	// layers holds the per-layer metrics of a traced unit.
	layers map[string]float64
	spans  []span
}

// stat is a metric summarized over the repeats of a run.
type stat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Q1 and Q3 are the quartiles over the N repeats (statistics.quantiles
	// n=4 convention); a metric measured once has N = 1 and Q1 = Q3 = Value.
	Q1 float64 `json:"q1"`
	Q3 float64 `json:"q3"`
	N  int     `json:"n"`
}

// spreadShare is the quartile distance as a share of the median.
func (s stat) spreadShare() float64 {
	if s.Value == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Value)
}

// summarize reports the median and quartiles of xs.
func summarize(xs []float64, unit string) stat {
	if len(xs) == 0 {
		return stat{Unit: unit}
	}
	q1, med, q3 := quartiles(xs)
	return stat{Value: med, Unit: unit, Q1: q1, Q3: q3, N: len(xs)}
}

// quartiles follows Python's statistics.quantiles(xs, n=4), the convention
// the acceptance rule for this benchmark is written in.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 { // i-th of 3 cut points, exclusive method
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		j = max(1, min(j, n-1))
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// percentile returns the p-quantile (0 < p < 1) of xs by the nearest-rank
// rule on the sorted samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(p*float64(len(s)-1))]
}

// totalAllocMB reads the cumulative heap allocation of the process.
func totalAllocMB() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.TotalAlloc) / 1e6
}

// coldSetups is how many leading set-ups of a run are left out of setup_s.
const coldSetups = 3

// runPlan says how long each phase of a workload run lasts.
type runPlan struct {
	setups     int
	minRepeats int
	// timed and traced are the wall-clock budgets of the two phases: units
	// repeat until the budget is spent. The traced phase runs at least one
	// unit, and only when trace is set.
	timed, traced time.Duration
	trace         bool
}

// workloadResult is one workload's part of a result file.
type workloadResult struct {
	Name      string  `json:"name"`
	Op        string  `json:"op"`
	TailPct   float64 `json:"tail_percentile"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	// FailShare is failed ÷ attempted operations over the timed repeats.
	FailShare float64 `json:"fail_share"`
	Correct   bool    `json:"correct"`
	// Checks lists every failed correctness check.
	Checks   []string           `json:"checks"`
	Digest   string             `json:"digest"`
	Counts   map[string]float64 `json:"counts"`
	EndToEnd map[string]stat    `json:"end_to_end"`
	PerLayer map[string]stat    `json:"per_layer,omitempty"`
	// LatencySamples is the per-unit sample count behind op_p50_ms and
	// op_tail_ms.
	LatencySamples int `json:"latency_samples"`

	spans []span
}

// runWorkload executes the run shape shared by every workload: set up
// several times (each with its untimed warm-up unit), repeat fixed-work
// units with tracing off until the timed budget is spent, then repeat them
// in pairs, one plain and one with the decorators installed.
func runWorkload(w workload, e env, plan runPlan) (*workloadResult, error) {
	var (
		inst       instance
		setupS     []float64
		setupParts = map[string][]float64{}
	)
	// The first set-ups of a process also pay for page faults, heap growth
	// and lazy initialisation no later one sees (0.23, 0.22, 0.18 s, then
	// 0.145 s steadily on sim_paper), so they run but are not counted.
	for i := 0; i < coldSetups+plan.setups; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, fmt.Errorf("%s: closing set-up %d: %w", w.name, i, err)
			}
		}
		runtime.GC() // every set-up and every unit starts from the same heap state
		t0 := time.Now()
		next, parts, err := w.setup(e)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		inst = next
		if i < coldSetups {
			continue
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		for k, v := range parts {
			setupParts[k] = append(setupParts[k], v)
		}
	}
	defer inst.close()

	res := &workloadResult{
		Name: w.name, Op: w.op, TailPct: w.tailPct, Counts: map[string]float64{},
		EndToEnd: map[string]stat{"setup_s": summarize(setupS, "s")},
	}
	failedChecks := map[string]bool{}
	note := func(u *unitResult) {
		for _, c := range u.checks {
			failedChecks[c] = true
		}
		switch {
		case res.Digest == "":
			res.Digest = u.digest
		case u.digest != res.Digest:
			failedChecks[fmt.Sprintf("output digest differs between repeats (%.12s vs %.12s)", u.digest, res.Digest)] = true
		}
		for k, v := range u.counts {
			if prev, ok := res.Counts[k]; ok && prev != v {
				failedChecks[fmt.Sprintf("count %s differs between repeats (%v vs %v)", k, v, prev)] = true
			}
			res.Counts[k] = v
		}
	}

	var opsPerS, p50, tail, alloc []float64
	start := time.Now()
	for n := 0; n < plan.minRepeats || time.Since(start) < plan.timed; n++ {
		runtime.GC()
		u, err := inst.unit(nil)
		if err != nil {
			return nil, fmt.Errorf("%s: timed repeat %d: %w", w.name, n, err)
		}
		note(u)
		res.Attempted += u.attempted
		res.Failed += u.failed
		res.LatencySamples = len(u.latMS)
		opsPerS = append(opsPerS, float64(u.ops)/u.wall.Seconds())
		p50 = append(p50, percentile(u.latMS, 0.50))
		tail = append(tail, percentile(u.latMS, w.tailPct))
		alloc = append(alloc, u.allocMB/float64(max(u.ops, 1)))
	}
	res.EndToEnd["ops_per_s"] = summarize(opsPerS, "1/s")
	res.EndToEnd["op_p50_ms"] = summarize(p50, "ms")
	res.EndToEnd["op_tail_ms"] = summarize(tail, "ms")
	res.EndToEnd["alloc_mb_per_op"] = summarize(alloc, "MB")

	if plan.trace {
		layers := map[string][]float64{}
		start = time.Now()
		for n := 0; n == 0 || time.Since(start) < plan.traced; n++ {
			// Each traced unit is paired with an untraced one run just
			// before it, so that the tracing overhead is read off two
			// neighbours and not across the machine's drift.
			runtime.GC()
			base, err := inst.unit(nil)
			if err != nil {
				return nil, fmt.Errorf("%s: traced repeat %d, untraced half: %w", w.name, n, err)
			}
			note(base)
			runtime.GC()
			u, err := inst.unit(newTracer())
			if err != nil {
				return nil, fmt.Errorf("%s: traced repeat %d: %w", w.name, n, err)
			}
			note(u)
			layers["bench.trace_overhead_share"] = append(layers["bench.trace_overhead_share"], u.wall.Seconds()/base.wall.Seconds()-1)
			for k, v := range u.layers {
				layers[k] = append(layers[k], v)
			}
			res.spans = u.spans
		}
		for k, v := range setupParts {
			layers[k] = v
		}
		res.PerLayer = map[string]stat{}
		for _, m := range perLayerMetrics {
			res.PerLayer[m.name] = summarize(layers[m.name], m.unit)
		}
		for k := range layers {
			if _, ok := res.PerLayer[k]; !ok {
				return nil, fmt.Errorf("%s: per-layer metric %q is not declared", w.name, k)
			}
		}
	}

	if res.Failed > 0 {
		failedChecks[fmt.Sprintf("%d of %d operations failed", res.Failed, res.Attempted)] = true
	}
	res.FailShare = float64(res.Failed) / float64(max(res.Attempted, 1))
	res.Checks = make([]string, 0, len(failedChecks))
	for c := range failedChecks {
		res.Checks = append(res.Checks, c)
	}
	sort.Strings(res.Checks)
	res.Correct = len(res.Checks) == 0
	return res, nil
}

// header records the machine a result file was measured on.
type header struct {
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Quick      bool    `json:"quick"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Workers    int     `json:"workers"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	// LoadModel states how serve_mixed is driven.
	LoadModel string `json:"load_model"`
	// Claim is the gain this result file is offered in support of; the
	// benchmark's own runs claim none.
	Claim *string `json:"claim"`
}

const loadModelNote = "serve_mixed is a closed loop: min(nproc,4) persistent connections, each sending its next request only after the previous reply; the load generator shares the CPUs with the server"

func newHeader(e env, seconds float64, quick bool) header {
	return header{
		Seed: e.seed, Seconds: seconds, Quick: quick,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: e.workers,
		GoVersion: runtime.Version(), CPUModel: cpuModel(),
		LoadModel: loadModelNote,
	}
}

// cpuModel reads the CPU model name where the platform exposes it.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

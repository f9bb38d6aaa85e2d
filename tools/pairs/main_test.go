package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// stubSides builds testdata/stubbench once and returns sides A and B, each
// running it in its own directory over the given canned lines, plus the
// path of the log the stub appends its invocations to.
func stubSides(t *testing.T, cannedA, cannedB []string) ([2]side, string) {
	t.Helper()
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "stubbench")
	if out, err := exec.Command("go", "build", "-o", bin, "./testdata/stubbench").CombinedOutput(); err != nil {
		t.Fatalf("building the stub: %v\n%s", err, out)
	}
	log := filepath.Join(tmp, "log")
	t.Setenv("PAIRS_STUB_LOG", log)
	var sides [2]side
	for i, canned := range [][]string{cannedA, cannedB} {
		name := []string{"A", "B"}[i]
		dir := filepath.Join(tmp, name)
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "canned"), []byte(strings.Join(canned, "\n")), 0o644); err != nil {
			t.Fatal(err)
		}
		sides[i] = side{name: name, rev: "rev" + name, dir: dir, bin: bin}
	}
	return sides, log
}

// line is a canned stub line: a digest and a passing result.
func line(digest string, ops, p50 float64) string {
	return fmt.Sprintf(`%s {"correct":true,"attempted":5,"failed":0,"metrics":{"ops_per_s":{"value":%g,"unit":"1/s"},"op_p50_ms":{"value":%g,"unit":"ms"}}}`, digest, ops, p50)
}

var defs = []metricDef{{"ops_per_s", "1/s", "higher"}, {"op_p50_ms", "ms", "lower"}}

// The sides alternate which goes first, every run gets the same driver
// arguments in its own directory, and the table reads each side's median
// and quartiles, the ratio of medians and B's wins pair by pair.
func TestPairsAlternateAndReport(t *testing.T) {
	sides, log := stubSides(t,
		[]string{line("d1", 10, 4), line("d1", 20, 4), line("d1", 30, 4), line("d1", 40, 4)},
		[]string{line("d1", 12, 3), line("d1", 18, 5), line("d1", 33, 3), line("d1", 41, 4)})
	args := []string{"-workload", "w", "-trace", "0", "-seed", "7", "-seconds", "2"}
	results, err := runPairs(context.Background(), sides, args, 4, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	for _, l := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		s, rest, _ := strings.Cut(l, " ")
		if rest != strings.Join(args, " ") {
			t.Errorf("side %s ran with %q, want %q", s, rest, strings.Join(args, " "))
		}
		order = append(order, s)
	}
	if got := strings.Join(order, ""); got != "ABBAABBA" {
		t.Errorf("run order %s, want ABBAABBA", got)
	}
	var out strings.Builder
	if err := report(&out, defs, results); err != nil {
		t.Fatal(err)
	}
	// Columns are compared with their padding collapsed to one space.
	got := strings.Join(strings.Fields(out.String()), " ")
	for _, want := range []string{
		"ops_per_s 1/s 25 [17.5, 32.5] 25.5 [16.5, 35] 1.020 3/4",
		"op_p50_ms ms 4 [4, 4] 3.5 [3, 4.25] 0.875 2/4",
		"digest d1: side A, pair 1",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}
}

// A run that fails, reports a failed check or prints no result stops the
// pairs with the pair and side named.
func TestPairsStopOnFailure(t *testing.T) {
	for _, tc := range []struct {
		name, bad, want string
	}{
		{"incorrect", `- {"correct":false,"attempted":5,"failed":0,"metrics":{}}`, "correct=false"},
		{"failed ops", `- {"correct":true,"attempted":5,"failed":2,"metrics":{}}`, "2 of 5 operations failed"},
		{"no result", "- bench: no such workload", "last line is not a result"},
		{"exit status", "- exit", "told to fail"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sides, _ := stubSides(t, []string{line("-", 1, 1)}, []string{line("-", 1, 1), tc.bad})
			_, err := runPairs(context.Background(), sides, nil, 3, io.Discard)
			if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "pair 2, side B (revB)") {
				t.Errorf("err = %v, want pair 2, side B and %q", err, tc.want)
			}
		})
	}
}

// Runs whose digests differ fail the report after the table is printed.
func TestPairsDigestMismatch(t *testing.T) {
	sides, _ := stubSides(t, []string{line("d1", 1, 1)}, []string{line("d1", 1, 1), line("d2", 1, 1)})
	results, err := runPairs(context.Background(), sides, nil, 2, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	err = report(&out, defs, results)
	if err == nil || !strings.Contains(out.String(), "ops_per_s") || !strings.Contains(out.String(), "digest d2: side B, pair 2") {
		t.Errorf("err = %v, report:\n%s", err, out.String())
	}
}

func TestQuantile(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{[]float64{3}, 0.25, 3},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{4, 1, 3, 2}, 0.25, 1.75},
		{[]float64{4, 1, 3, 2}, 0.75, 3.25},
		{[]float64{5, 1, 3}, 1, 5},
	} {
		if got := quantile(tc.xs, tc.p); got != tc.want {
			t.Errorf("quantile(%v, %g) = %g, want %g", tc.xs, tc.p, got, tc.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no values is not NaN")
	}
}

// Usage errors exit 2 before anything is built.
func TestUsage(t *testing.T) {
	for _, args := range [][]string{{}, {"-workload", "w", "-n", "0"}, {"-workload", "w", "-trace", "2"}, {"-workload", "w", "extra"}} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
	}
}

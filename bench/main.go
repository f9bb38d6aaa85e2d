// Command bench is the repository's benchmark: four workloads measured end
// to end with tracing off, then stage by stage with timing decorators
// installed around the public functions of each layer. See README.md in
// this directory and BENCHMARK.json at the repository root.
//
//	go run ./bench -seed 1 -out bench/results/<name>.json   # every workload
//	go run ./bench -workload sim_wide                       # one workload
//	go run ./bench -quick                                   # smoke run
//	go run ./bench -compare a.json b.json                   # apply the bounds
//
// With -workload and -trace 0|1 the last line of standard output is one
// JSON object {"correct", "attempted", "failed", "metrics"} holding every
// end-to-end metric (-trace 0) or every per-layer metric (-trace 1).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/signguard/signguard/internal/campaign"
	"github.com/signguard/signguard/internal/sanitize"
)

// defaultSeconds is the timed budget of one workload run; BENCHMARK.json
// carries the same number as run_seconds.
const defaultSeconds = 15

// simSpecs returns the two simulation workloads at full or smoke-run size.
func simSpecs(quick bool) []simSpec {
	paper := simSpec{
		name: "sim_paper", dataset: "cifar", rule: "SignGuard-Sim", codec: "identity",
		clients: 50, batch: 8, rounds: 80, warmRounds: 5, evalEvery: 20,
		accFloor: 28, byzKeptCeil: 0.75,
	}
	wide := simSpec{
		name: "sim_wide", dataset: "mnist", rule: "Multi-Krum", codec: "topk",
		clients: 200, batch: 1, rounds: 12, warmRounds: 2, evalEvery: 6,
		nonFinite: sanitize.Reject, accFloor: 29, byzKeptCeil: -1,
	}
	if quick {
		paper.clients, paper.rounds, paper.warmRounds, paper.evalEvery, paper.accFloor, paper.byzKeptCeil = 10, 3, 1, 3, 0, -1
		wide.clients, wide.rounds, wide.warmRounds, wide.evalEvery, wide.accFloor = 20, 2, 1, 2, 0
	}
	return []simSpec{paper, wide}
}

// workloads returns the four workloads at full or smoke-run size.
func workloads(quick bool) []workload {
	grid := gridSpec{
		name:     "campaign_grid",
		datasets: []string{"mnist", "agnews"},
		rules:    []string{"Mean", "TrMean", "Multi-Krum", "SignGuard-Sim"},
		attacks:  []string{"Sign-flip", "LIE", "Min-Max"},
		seeds:    4, warmPasses: 20, warmUp: 8,
		params: campaign.Params{
			Clients: 10, ByzFraction: 0.2, Rounds: 10, BatchSize: 8,
			EvalEvery: 5, EvalSamples: 100, TrainSize: 600, TestSize: 200,
		},
	}
	serve := serveSpec{
		name: "serve_mixed", dim: 1024, sessions: 1500, updatesPerSession: 4,
		warmSessions: 50, replaySubmits: 2000, minErrorDrop: 0.9,
	}
	if quick {
		grid.datasets, grid.rules, grid.attacks = []string{"mnist"}, []string{"Mean", "SignGuard-Sim"}, []string{"LIE"}
		grid.seeds, grid.warmPasses, grid.warmUp, grid.params.Rounds = 2, 2, 1, 3
		serve.sessions, serve.warmSessions, serve.replaySubmits, serve.minErrorDrop = 100, 10, 200, 0.1
	}
	var out []workload
	for _, s := range simSpecs(quick) {
		out = append(out, s.workload())
	}
	return append(out, grid.workload(), serve.workload())
}

// options are the parsed flags of a measuring run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	// trace is -1 for a full run (timed, then traced), 0 for the timed
	// phase alone and 1 for a shortened timed phase followed by the traced
	// one; 0 and 1 print the result line.
	trace  int
	quick  bool
	out    string
	outDir string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	compare := fs.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
	fs.StringVar(&o.workload, "workload", "", "run one workload (default: all four)")
	fs.Int64Var(&o.seed, "seed", 1, "derives every dataset, simulation, campaign and client-noise seed")
	fs.Float64Var(&o.seconds, "seconds", defaultSeconds, "timed budget of each workload")
	fs.IntVar(&o.trace, "trace", -1, "0: timed phase only, 1: per-layer metrics; either prints the result line (needs -workload)")
	fs.BoolVar(&o.quick, "quick", false, "seconds-long smoke run at reduced sizes")
	fs.StringVar(&o.out, "out", "", "write the full result set to this JSON file")
	fs.StringVar(&o.outDir, "outdir", filepath.Join("bench", "out"), "directory for traces and scratch stores")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two result files")
			return 2
		}
		code, err := compareFiles(stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		return code
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if o.trace != -1 && o.workload == "" {
		fmt.Fprintln(stderr, "bench: -trace needs -workload")
		return 2
	}
	code, err := measure(o, workloads(o.quick), stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	return code
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Header    header            `json:"header"`
	Workloads []*workloadResult `json:"workloads"`
}

// measure runs the selected workloads, prints every metric by name with
// its unit, and returns 1 when a correctness check failed.
func measure(o options, all []workload, stdout io.Writer) (int, error) {
	var selected []workload
	for _, w := range all {
		if o.workload == "" || o.workload == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		return 0, fmt.Errorf("unknown workload %q", o.workload)
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return 0, err
	}
	tmpDir, err := os.MkdirTemp(o.outDir, "tmp-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(tmpDir)

	e := env{seed: o.seed, workers: min(runtime.NumCPU(), 4), tmpDir: tmpDir}
	budget := time.Duration(o.seconds * float64(time.Second))
	plan := runPlan{setups: 7, minRepeats: 3, timed: budget, trace: o.trace != 0, traced: budget / 2}
	if o.trace == 1 {
		plan.timed, plan.traced = budget/4, 3*budget/4
	}
	if o.quick {
		plan.setups, plan.minRepeats, plan.timed, plan.traced = 1, 1, 0, 0
	}

	file := resultFile{Header: newHeader(e, o.seconds, o.quick)}
	printHeader(stdout, file.Header)
	code := 0
	for _, w := range selected {
		res, err := runWorkload(w, e, plan)
		if err != nil {
			return 0, err
		}
		if res.spans != nil {
			if err := writeTrace(o.outDir, w.name, res.spans); err != nil {
				return 0, err
			}
		}
		printWorkload(stdout, res)
		if !res.Correct {
			code = 1
		}
		file.Workloads = append(file.Workloads, res)
	}
	if o.out != "" {
		raw, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			return 0, err
		}
		if err := os.MkdirAll(filepath.Dir(o.out), 0o755); err != nil {
			return 0, err
		}
		if err := os.WriteFile(o.out, append(raw, '\n'), 0o644); err != nil {
			return 0, err
		}
	}
	if o.trace != -1 {
		if err := printResultLine(stdout, file.Workloads[0], o.trace == 1); err != nil {
			return 0, err
		}
	}
	return code, nil
}

func printHeader(w io.Writer, h header) {
	fmt.Fprintf(w, "bench: seed %d, %.0f s per workload, %d workers/connections (nproc %d, GOMAXPROCS %d), %s, cpu %q\n",
		h.Seed, h.Seconds, h.Workers, h.NProc, h.GOMAXPROCS, h.GoVersion, h.CPUModel)
	fmt.Fprintf(w, "bench: %s\n", h.LoadModel)
}

func printWorkload(w io.Writer, r *workloadResult) {
	fmt.Fprintf(w, "\n== %s (op: %s; tail = p%.0f of %d samples per repeat) ==\n", r.Name, r.Op, 100*r.TailPct, r.LatencySamples)
	line := func(name string, s stat) {
		fmt.Fprintf(w, "  %-36s %14.6g %-6s", name, s.Value, s.Unit)
		if s.N > 1 {
			fmt.Fprintf(w, " q1 %.6g  q3 %.6g  spread %.1f%%  n=%d", s.Q1, s.Q3, 100*s.spreadShare(), s.N)
		}
		fmt.Fprintln(w)
	}
	for _, m := range endToEndMetrics {
		line(m.name, r.EndToEnd[m.name])
	}
	fmt.Fprintf(w, "  %-36s %14.6g %-6s (%d failed of %d attempted)\n", "fail_share", r.FailShare, "share", r.Failed, r.Attempted)
	if r.PerLayer != nil {
		for _, m := range perLayerMetrics {
			if s := r.PerLayer[m.name]; s.N > 0 { // skip the layers this workload does not run
				line(m.name, s)
			}
		}
	}
	if r.Digest != "" {
		fmt.Fprintf(w, "  digest %s\n", r.Digest)
	}
	if r.Correct {
		fmt.Fprintln(w, "  checks: all passed")
	}
	for _, c := range r.Checks {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", c)
	}
}

// printResultLine prints the one-line result object: every end-to-end
// metric, or with perLayer every per-layer metric.
func printResultLine(w io.Writer, r *workloadResult, perLayer bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, stats := endToEndMetrics, r.EndToEnd
	if perLayer {
		defs, stats = perLayerMetrics, r.PerLayer
	}
	metrics := make(map[string]value, len(defs))
	for _, m := range defs {
		v := stats[m.name].Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s is not finite", r.Name, m.name)
		}
		metrics[m.name] = value{v, m.unit}
	}
	raw, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", raw)
	return err
}

// Command pairs measures a change with the repository benchmark the way a
// gain is claimed (bench/README.md): it builds ./bench at two revisions and
// runs one workload in N alternating pairs, each side going first in every
// other pair, then prints per metric each side's median [Q1, Q3], the ratio
// of the medians and in how many pairs side B came out ahead. Run it from
// the repository:
//
//	go run ./tools/pairs -a HEAD -workload sim_wide -n 10   # HEAD against the working tree
//	make perf-pairs A=HEAD~1 B=HEAD W=sim_wide N=10
//
// A revision is exported with git archive into a temporary directory and
// built there; an empty -b builds the working tree, uncommitted edits
// included. Each run is the benchmark's driver form (-workload W -trace T
// -seed S -seconds X), started in its own checkout's root, and its last
// line of output is the JSON result. pairs exits 1 as soon as a run fails
// or reports correct:false or failed > 0, and after the table when the two
// sides' output digests differ (the benchmark's digests depend only on the
// seed, so a change that keeps every result bit-identical keeps them).
package main

import (
	"archive/tar"
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"
)

// side is one of the two builds being compared.
type side struct {
	name string // "A" or "B"
	rev  string // the revision, or "" for the working tree
	at   string // the commit rev names, abbreviated
	dir  string // the checkout the binary runs in
	bin  string // the built benchmark
}

// result is one run's last output line plus the digest it printed.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
	digest string
}

// metricDef is a BENCHMARK.json metric: its name and which way is better.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pairs", flag.ContinueOnError)
	fs.SetOutput(stderr)
	revA := fs.String("a", "HEAD", "revision of side A (the parent)")
	revB := fs.String("b", "", "revision of side B (the change; empty: the working tree)")
	workload := fs.String("workload", "", "the benchmark workload to run")
	n := fs.Int("n", 10, "number of pairs")
	seed := fs.Int64("seed", 1, "the benchmark's -seed, the same for every run")
	seconds := fs.Float64("seconds", 15, "the benchmark's -seconds")
	trace := fs.Int("trace", 0, "the benchmark's -trace: 0 end-to-end metrics, 1 per-layer metrics")
	quick := fs.Bool("quick", false, "pass -quick: the benchmark's seconds-long smoke sizes")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *workload == "" || *n < 1 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "pairs: need -workload, -n >= 1, -trace 0|1 and no arguments")
		return 2
	}
	root, err := gitOutput("", "rev-parse", "--show-toplevel")
	if err != nil {
		fmt.Fprintln(stderr, "pairs:", err)
		return 2
	}
	tmp, err := os.MkdirTemp("", "pairs-")
	if err != nil {
		fmt.Fprintln(stderr, "pairs:", err)
		return 2
	}
	defer os.RemoveAll(tmp)
	// An interrupt stops the running benchmark and returns through the
	// deferred clean-up instead of leaving the exported trees behind.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	sides := [2]side{{name: "A", rev: *revA}, {name: "B", rev: *revB}}
	for i := range sides {
		if err := build(&sides[i], root, tmp); err != nil {
			fmt.Fprintln(stderr, "pairs:", err)
			return 2
		}
	}
	defs, err := readMetrics(filepath.Join(sides[1].dir, "BENCHMARK.json"), *trace)
	if err != nil {
		fmt.Fprintln(stderr, "pairs:", err)
		return 2
	}
	benchArgs := []string{"-workload", *workload, "-trace", strconv.Itoa(*trace),
		"-seed", strconv.FormatInt(*seed, 10), "-seconds", strconv.FormatFloat(*seconds, 'g', -1, 64)}
	if *quick {
		benchArgs = append(benchArgs, "-quick")
	}
	results, err := runPairs(ctx, sides, benchArgs, *n, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "pairs:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s, %d pairs: A = %s, B = %s\n", *workload, *n, label(sides[0]), label(sides[1]))
	if err := report(stdout, defs, results); err != nil {
		fmt.Fprintln(stderr, "pairs:", err)
		return 1
	}
	return 0
}

// label names a side's revision for the report.
func label(s side) string {
	switch {
	case s.rev == "":
		return "working tree"
	case s.at != "":
		return s.rev + " (" + s.at + ")"
	}
	return s.rev
}

// build checks side s out (the working tree itself for an empty revision,
// else git archive into tmp) and builds its benchmark binary into tmp.
func build(s *side, root, tmp string) error {
	s.dir = root
	if s.rev != "" {
		s.dir = filepath.Join(tmp, s.name)
		at, err := gitOutput(root, "rev-parse", "--short", s.rev+"^{commit}")
		if err != nil {
			return err
		}
		s.at = at
		if err := export(root, s.rev, s.dir); err != nil {
			return err
		}
	}
	s.bin = filepath.Join(tmp, "bench-"+s.name)
	cmd := exec.Command("go", "build", "-o", s.bin, "./bench")
	cmd.Dir = s.dir
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building side %s (%s): %v\n%s", s.name, label(*s), err, out)
	}
	return nil
}

// export writes the tree of revision rev into dir.
func export(root, rev, dir string) error {
	cmd := exec.Command("git", "archive", "--format=tar", rev)
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	untarErr := untar(out, dir)
	io.Copy(io.Discard, out)
	if err := cmd.Wait(); err != nil {
		return fmt.Errorf("git archive %s: %v: %s", rev, err, strings.TrimSpace(stderr.String()))
	}
	return untarErr
}

// untar extracts the regular files and directories of a tar stream into
// dir; git archive writes nothing else that a build reads.
func untar(r io.Reader, dir string) error {
	tr := tar.NewReader(r)
	for {
		h, err := tr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		path := filepath.Join(dir, filepath.FromSlash(h.Name))
		if !strings.HasPrefix(path, filepath.Clean(dir)+string(os.PathSeparator)) {
			return fmt.Errorf("archive entry %q leaves the checkout", h.Name)
		}
		switch h.Typeflag {
		case tar.TypeDir:
			if err := os.MkdirAll(path, 0o755); err != nil {
				return err
			}
		case tar.TypeReg:
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				return err
			}
			f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, os.FileMode(h.Mode)&0o777)
			if err != nil {
				return err
			}
			_, err = io.Copy(f, tr)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
		}
	}
}

// gitOutput runs git in dir and returns its trimmed standard output.
func gitOutput(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			return "", fmt.Errorf("git %s: %s", strings.Join(args, " "), strings.TrimSpace(string(exit.Stderr)))
		}
		return "", err
	}
	return strings.TrimSpace(string(out)), nil
}

// readMetrics returns the metrics a -trace run reports, from BENCHMARK.json:
// its end_to_end list for -trace 0, its per_layer list for -trace 1.
func readMetrics(path string, trace int) ([]metricDef, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if trace == 1 {
		return spec.PerLayer, nil
	}
	return spec.EndToEnd, nil
}

// runPairs runs the two sides n times each with args, A first in even
// pairs and B first in odd ones, and returns every side's results in pair
// order. It stops at the first run that fails or reports a failed check.
func runPairs(ctx context.Context, sides [2]side, args []string, n int, progress io.Writer) ([2][]result, error) {
	var results [2][]result
	for p := 0; p < n; p++ {
		order := []int{0, 1}
		if p%2 == 1 {
			order = []int{1, 0}
		}
		for _, i := range order {
			r, err := runOnce(ctx, sides[i], args)
			if err != nil {
				return results, fmt.Errorf("pair %d, side %s (%s): %v", p+1, sides[i].name, label(sides[i]), err)
			}
			results[i] = append(results[i], r)
		}
		fmt.Fprintf(progress, "pairs: pair %d/%d done\n", p+1, n)
	}
	return results, nil
}

// runOnce runs one side's benchmark in its checkout and parses its result.
func runOnce(ctx context.Context, s side, args []string) (result, error) {
	cmd := exec.CommandContext(ctx, s.bin, args...)
	cmd.Dir = s.dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("%v: %s", err, strings.TrimSpace(stderr.String()))
	}
	var r result
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if d, ok := strings.CutPrefix(line, "digest "); ok {
			r.digest = d
		}
		last = line
	}
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return result{}, fmt.Errorf("last line is not a result: %q", last)
	}
	if !r.Correct || r.Failed > 0 {
		return result{}, fmt.Errorf("correct=%v, %d of %d operations failed", r.Correct, r.Failed, r.Attempted)
	}
	return r, nil
}

// report prints one row per metric and returns an error when the sides'
// digests differ.
func report(w io.Writer, defs []metricDef, results [2][]result) error {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tunit\tA median [Q1, Q3]\tB median [Q1, Q3]\tB/A\tB ahead")
	for _, m := range defs {
		var vals [2][]float64
		for i := range results {
			for _, r := range results[i] {
				vals[i] = append(vals[i], r.Metrics[m.Name].Value)
			}
		}
		ahead := 0
		for p := range vals[1] {
			if better(m.Better, vals[1][p], vals[0][p]) {
				ahead++
			}
		}
		ma, mb := quantile(vals[0], 0.5), quantile(vals[1], 0.5)
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%.3f\t%d/%d\n", m.Name, m.Unit, spread(vals[0]), spread(vals[1]), mb/ma, ahead, len(vals[1]))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	var digests []string
	for i, name := range []string{"A", "B"} {
		for p, r := range results[i] {
			if r.digest != "" && !slices.Contains(digests, r.digest) {
				digests = append(digests, r.digest)
				fmt.Fprintf(w, "digest %s: side %s, pair %d\n", r.digest, name, p+1)
			}
		}
	}
	if len(digests) > 1 {
		return fmt.Errorf("the runs printed %d different digests", len(digests))
	}
	return nil
}

// better reports whether b beats a in the metric's direction.
func better(direction string, b, a float64) bool {
	if direction == "lower" {
		return b < a
	}
	return b > a
}

// spread formats a sample as median [Q1, Q3].
func spread(xs []float64) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", quantile(xs, 0.5), quantile(xs, 0.25), quantile(xs, 0.75))
}

// quantile is the p-quantile of xs, interpolating linearly between the
// order statistics at (len(xs)−1)·p; NaN for an empty sample.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	h := float64(len(s)-1) * p
	lo := int(h)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

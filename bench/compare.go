package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkSpec mirrors BENCHMARK.json at the repository root.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles applies the bounds of the spec file to two result files, a
// then b, and prints one row per workload × end-to-end metric:
//
//	ok          b is no worse than a by more than the bound
//	worse       b is worse than a by more than the bound
//	unresolved  the quartile spread inside either run exceeds the bound
//
// plus a row each for fail_share (which may not rise at all), the output
// digest and the exact counts (which must be identical at equal seeds).
// The exit code is 1 unless every row is ok.
func compareFiles(w io.Writer, specPath, aPath, bPath string) (int, error) {
	var spec benchmarkSpec
	var a, b resultFile
	for path, v := range map[string]any{specPath: &spec, aPath: &a, bPath: &b} {
		if err := readJSON(path, v); err != nil {
			return 0, err
		}
	}
	after := map[string]*workloadResult{}
	for _, r := range b.Workloads {
		after[r.Name] = r
	}
	sameSeed := a.Header.Seed == b.Header.Seed && a.Header.Quick == b.Header.Quick

	code := 0
	row := func(workload, metric, verdict, detail string) {
		if verdict != "ok" {
			code = 1
		}
		fmt.Fprintf(w, "%-14s %-16s %-10s %s\n", workload, metric, verdict, detail)
	}
	for _, ra := range a.Workloads {
		rb, ok := after[ra.Name]
		if !ok {
			row(ra.Name, "-", "worse", "missing from "+bPath)
			continue
		}
		for _, m := range spec.EndToEnd {
			sa, sb := ra.EndToEnd[m.Name], rb.EndToEnd[m.Name]
			worseBy := (sb.Value - sa.Value) / sa.Value
			if m.Better == "higher" {
				worseBy = -worseBy
			}
			verdict := "ok"
			switch spread := max(sa.spreadShare(), sb.spreadShare()); {
			case spread > m.Bound:
				verdict = "unresolved"
			case worseBy > m.Bound:
				verdict = "worse"
			}
			row(ra.Name, m.Name, verdict, fmt.Sprintf("%.6g -> %.6g %s (regression %+.1f%%, bound %.0f%%, spread %.1f%% / %.1f%%)",
				sa.Value, sb.Value, m.Unit, 100*worseBy, 100*m.Bound, 100*sa.spreadShare(), 100*sb.spreadShare()))
		}
		verdict := "ok"
		if rb.FailShare > ra.FailShare {
			verdict = "worse"
		}
		row(ra.Name, "fail_share", verdict, fmt.Sprintf("%g -> %g", ra.FailShare, rb.FailShare))
		if !sameSeed {
			continue
		}
		verdict = "ok"
		if ra.Digest != rb.Digest {
			verdict = "worse"
		}
		row(ra.Name, "digest", verdict, fmt.Sprintf("%.12s -> %.12s", ra.Digest, rb.Digest))
		verdict = "ok"
		for k, v := range ra.Counts {
			if rb.Counts[k] != v {
				verdict = "worse"
			}
		}
		row(ra.Name, "counts", verdict, fmt.Sprintf("%v -> %v", ra.Counts, rb.Counts))
	}
	return code, nil
}

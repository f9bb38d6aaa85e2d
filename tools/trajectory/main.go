// Command trajectory prints, for every BENCH_*.json at the repository root
// in PR order, the benchmark columns that a different day's machine cannot
// move: allocation volumes, wire bytes, counts, digests and each round
// stage's share of its round. Timings are left out on purpose — they
// compare only within one machine and one sitting (bench/README.md).
// Run it with `make trajectory`.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"text/tabwriter"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

type workload struct {
	Name     string             `json:"name"`
	Digest   string             `json:"digest"`
	Counts   map[string]float64 `json:"counts"`
	EndToEnd map[string]metric  `json:"end_to_end"`
	PerLayer map[string]metric  `json:"per_layer"`
}

// stable reports whether a per-layer metric is machine-independent: sizes,
// counts and shares, minus the five that are ratios of timings or depend on
// how concurrent connections interleave.
func stable(name string, m metric) bool {
	switch name {
	case "bench.trace_overhead_share", "campaign.pool_idle_share",
		"asyncfl.mean_occupancy", "asyncfl.mean_staleness", "asyncfl.defense_kept_share":
		return false
	}
	return slices.Contains([]string{"MB", "B", "count", "share"}, m.Unit)
}

func main() {
	files, err := filepath.Glob("BENCH_*.json")
	if err != nil || len(files) == 0 {
		fmt.Fprintln(os.Stderr, "trajectory: no BENCH_*.json in the current directory")
		os.Exit(1)
	}
	// BENCH_9 before BENCH_20 before BENCH_100.
	slices.SortFunc(files, func(a, b string) int {
		if len(a) != len(b) {
			return len(a) - len(b)
		}
		return strings.Compare(a, b)
	})
	rows := map[string][]map[string]string{} // workload → one column map per file
	var order []string
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			fmt.Fprintln(os.Stderr, "trajectory:", err)
			os.Exit(1)
		}
		var result struct {
			Workloads []workload `json:"workloads"`
		}
		if err := json.Unmarshal(raw, &result); err != nil {
			fmt.Fprintf(os.Stderr, "trajectory: %s: %v\n", file, err)
			os.Exit(1)
		}
		for _, w := range result.Workloads {
			cols := map[string]string{"file": file, "digest": fmt.Sprintf("%.12s", w.Digest)}
			cols["alloc_mb_per_op"] = fmt.Sprintf("%.4g", w.EndToEnd["alloc_mb_per_op"].Value)
			for name, v := range w.Counts {
				cols[name] = fmt.Sprintf("%.6g", v)
			}
			var round float64
			for name, m := range w.PerLayer {
				if m.N > 0 && stable(name, m) {
					cols[name] = fmt.Sprintf("%.6g", m.Value)
				}
				if strings.HasPrefix(name, "fl.") && strings.HasSuffix(name, "_ms_per_round") {
					round += m.Value
				}
			}
			for name, m := range w.PerLayer {
				if stage, ok := strings.CutSuffix(name, "_ms_per_round"); ok && strings.HasPrefix(name, "fl.") && round > 0 {
					cols[stage+"_share_of_round"] = fmt.Sprintf("%.1f%%", 100*m.Value/round)
				}
			}
			if _, seen := rows[w.Name]; !seen {
				order = append(order, w.Name)
			}
			rows[w.Name] = append(rows[w.Name], cols)
		}
	}
	for _, name := range order {
		var header []string
		for _, cols := range rows[name] {
			for col := range cols {
				if col != "file" && !slices.Contains(header, col) {
					header = append(header, col)
				}
			}
		}
		slices.Sort(header)
		// One metric per line, one column per file: a PR's effect reads
		// left to right.
		fmt.Printf("== %s\n", name)
		tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
		for _, col := range append([]string{"file"}, header...) {
			fmt.Fprint(tw, col)
			for _, cols := range rows[name] {
				v := cols[col]
				if v == "" {
					v = "-"
				}
				fmt.Fprint(tw, "\t", v)
			}
			fmt.Fprintln(tw)
		}
		tw.Flush()
		fmt.Println()
	}
}

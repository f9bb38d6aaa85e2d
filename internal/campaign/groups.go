package campaign

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"math"
	"strconv"
)

// GroupStat summarizes one quantity across a seed group: the sample mean,
// the sample standard deviation (n−1 denominator), and the half-width of
// the 95% confidence interval for the mean (Student t critical value, the
// paper's run-averaging convention). Std and CI95 are zero for singleton
// groups.
type GroupStat struct {
	Mean, Std, CI95 float64
}

// newGroupStat computes the summary of one sample.
func newGroupStat(xs []float64) GroupStat {
	n := len(xs)
	if n == 0 {
		return GroupStat{}
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(n)
	if n == 1 {
		return GroupStat{Mean: mean}
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	std := math.Sqrt(ss / float64(n-1))
	return GroupStat{Mean: mean, Std: std, CI95: tCrit95(n-1) * std / math.Sqrt(float64(n))}
}

// tCrit95 returns the two-sided 95% Student t critical value for df
// degrees of freedom (normal limit beyond the table).
func tCrit95(df int) float64 {
	table := []float64{
		0, 12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
		2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101,
		2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052,
		2.048, 2.045, 2.042,
	}
	if df <= 0 {
		return 0
	}
	if df < len(table) {
		return table[df]
	}
	return 1.96
}

// SeedGroup aggregates the results of one cell replicated across seeds —
// every field of the cell identical except Params.Seed — the way the paper
// averages each reported number over independent runs.
type SeedGroup struct {
	// ID is the shared cell identity (Cell.GroupID()).
	ID string
	// Cell is a representative member (the first seen), seed included.
	Cell Cell
	// Seeds lists the member seeds in result order.
	Seeds []int64
	// N is the group size (including diverged members).
	N int
	// Diverged counts members whose training diverged; their accuracies
	// still enter the statistics (a destroyed model is a result).
	Diverged int

	Best  GroupStat
	Final GroupStat
	// SelHonest / SelMalicious summarize the selection rates over the
	// members that reported them; HasSelection is false when none did.
	HasSelection bool
	SelHonest    GroupStat
	SelMalicious GroupStat
}

// GroupBySeed folds per-cell results into seed groups, preserving
// first-seen order. Results differing only in Params.Seed share a group.
func GroupBySeed(results []*CellResult) []*SeedGroup {
	type acc struct {
		g           *SeedGroup
		best, final []float64
		selH, selM  []float64
	}
	var order []*acc
	byID := map[string]*acc{}
	for _, r := range results {
		if r == nil {
			continue
		}
		id := r.Cell.GroupID()
		a, ok := byID[id]
		if !ok {
			a = &acc{g: &SeedGroup{ID: id, Cell: r.Cell}}
			byID[id] = a
			order = append(order, a)
		}
		a.g.Seeds = append(a.g.Seeds, r.Cell.Params.Seed)
		a.g.N++
		if r.Diverged {
			a.g.Diverged++
		}
		a.best = append(a.best, r.BestAccuracy)
		a.final = append(a.final, r.FinalAccuracy)
		if r.HasSelection {
			a.selH = append(a.selH, r.SelHonest)
			a.selM = append(a.selM, r.SelMalicious)
		}
	}
	out := make([]*SeedGroup, len(order))
	for i, a := range order {
		a.g.Best = newGroupStat(a.best)
		a.g.Final = newGroupStat(a.final)
		if len(a.selH) > 0 {
			a.g.HasSelection = true
			a.g.SelHonest = newGroupStat(a.selH)
			a.g.SelMalicious = newGroupStat(a.selM)
		}
		out[i] = a.g
	}
	return out
}

// groupCSVHeader is the column layout of WriteGroupCSV, one row per seed
// group.
var groupCSVHeader = []string{
	"group_id", "dataset", "rule", "attack", "n", "seeds", "diverged",
	"best_mean", "best_std", "best_ci95",
	"final_mean", "final_std", "final_ci95",
	"sel_honest_mean", "sel_honest_ci95",
	"sel_malicious_mean", "sel_malicious_ci95",
}

// WriteGroupCSV aggregates the results by seed group and emits one row per
// group with mean/std/95% CI columns.
func WriteGroupCSV(w io.Writer, results []*CellResult) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(groupCSVHeader); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
	for _, g := range GroupBySeed(results) {
		seeds := ""
		for i, s := range g.Seeds {
			if i > 0 {
				seeds += " "
			}
			seeds += strconv.FormatInt(s, 10)
		}
		selHMean, selHCI, selMMean, selMCI := "", "", "", ""
		if g.HasSelection {
			selHMean, selHCI = f(g.SelHonest.Mean), f(g.SelHonest.CI95)
			selMMean, selMCI = f(g.SelMalicious.Mean), f(g.SelMalicious.CI95)
		}
		row := []string{
			g.ID, g.Cell.Dataset, g.Cell.Rule, g.Cell.Attack,
			strconv.Itoa(g.N), seeds, strconv.Itoa(g.Diverged),
			f(g.Best.Mean), f(g.Best.Std), f(g.Best.CI95),
			f(g.Final.Mean), f(g.Final.Std), f(g.Final.CI95),
			selHMean, selHCI, selMMean, selMCI,
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteGroupJSON aggregates the results by seed group and emits the groups
// as an indented JSON array.
func WriteGroupJSON(w io.Writer, results []*CellResult) error {
	groups := GroupBySeed(results)
	if groups == nil {
		groups = []*SeedGroup{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(groups)
}

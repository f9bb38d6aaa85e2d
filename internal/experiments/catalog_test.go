package experiments

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/signguard/signguard/internal/campaign"
	"github.com/signguard/signguard/internal/stats"
)

// TestCampaignNamesOrder pins the catalog order: it fixes the merged "all"
// grid, its export row order and the table export of -name all.
func TestCampaignNamesOrder(t *testing.T) {
	want := []string{
		"table1", "table2", "table3", "fig2", "fig4", "fig5", "fig6",
		"adaptive", "compression", "hostile", "serverlearn", "all",
	}
	if got := CampaignNames(); !slices.Equal(got, want) {
		t.Errorf("CampaignNames() = %v, want %v", got, want)
	}
}

// TestRenderContract holds every catalog entry's renderer to its own grid
// without training a cell: fed one fabricated result per cell of its spec,
// it renders at least one table whose rows are as wide as the header, and
// fed one result fewer, it fails.
func TestRenderContract(t *testing.T) {
	p := DefaultParams(ScaleBench)
	ss := stats.SignStats{Pos: 0.5, Zero: 0.2, Neg: 0.3}
	probe, err := json.Marshal(SignStatsSeries{
		Rounds: []int{0, 3}, Honest: []stats.SignStats{ss, ss}, LIE: []stats.SignStats{ss, ss},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range Experiments().Values() {
		t.Run(x.Name, func(t *testing.T) {
			spec := x.Spec(p)
			results := make([]*campaign.CellResult, len(spec.Cells))
			for i, c := range spec.Cells {
				results[i] = &campaign.CellResult{
					Cell: c, HasSelection: true, BestAccuracy: 60, FinalAccuracy: 55,
					EvalRounds: []int{10, 20}, EvalAccuracies: []float64{40, 60},
				}
				if c.Probe == SignStatsProbe {
					results[i].Probe = probe
				}
			}
			tables, err := x.Render(results)
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) == 0 {
				t.Fatal("rendered no table")
			}
			for _, tbl := range tables {
				for i, row := range tbl.Rows {
					if len(row) != len(tbl.Header) {
						t.Errorf("%s: row %d has %d cells, header %d", tbl.Title, i, len(row), len(tbl.Header))
					}
				}
			}
			if _, err := x.Render(results[:len(results)-1]); err == nil {
				t.Errorf("rendered a %d-cell grid from %d results", len(results), len(results)-1)
			}
		})
	}
}

// TestTable2NarrowedGridNamesTheCount: Table II rendered from a grid
// narrowed to one attack (-filter LIE) fails on the count of results it
// read, not on a cell the filter removed.
func TestTable2NarrowedGridNamesTheCount(t *testing.T) {
	spec := table2Spec(DefaultParams(ScaleBench)).Filter("LIE")
	results := make([]*campaign.CellResult, len(spec.Cells))
	for i, c := range spec.Cells {
		results[i] = &campaign.CellResult{Key: fmt.Sprint(i), Cell: c, HasSelection: true}
	}
	_, err := renderTable2(results)
	if want := "renderer read 15 results of a 3-cell grid"; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Table II of a 3-cell grid: error %v, want %q", err, want)
	}
}

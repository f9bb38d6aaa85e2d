package campaign_test

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"github.com/signguard/signguard/internal/campaign"
)

// fakeResult builds a minimal CellResult for exporter tests.
func fakeResult(rule string, seed int64, best, final float64) *campaign.CellResult {
	c := campaign.NewCell("tiny", rule, "LIE", tinyParams(seed))
	return &campaign.CellResult{
		Key: c.ID(), Cell: c, RuleName: rule, AttackName: "LIE",
		BestAccuracy: best, FinalAccuracy: final,
	}
}

func TestGroupBySeedStats(t *testing.T) {
	results := []*campaign.CellResult{
		fakeResult("Mean", 1, 80, 78),
		fakeResult("Mean", 2, 82, 80),
		fakeResult("Mean", 3, 84, 82),
		fakeResult("SignGuard", 1, 90, 89),
	}
	results[3].HasSelection = true
	results[3].SelHonest = 0.95
	results[3].SelMalicious = 0.1

	groups := campaign.GroupBySeed(results)
	if len(groups) != 2 {
		t.Fatalf("%d groups, want 2", len(groups))
	}
	g := groups[0]
	if g.N != 3 || len(g.Seeds) != 3 {
		t.Fatalf("group 0 has N=%d seeds=%v", g.N, g.Seeds)
	}
	if g.Best.Mean != 82 {
		t.Errorf("best mean %v, want 82", g.Best.Mean)
	}
	if math.Abs(g.Best.Std-2) > 1e-12 {
		t.Errorf("best std %v, want 2", g.Best.Std)
	}
	// df=2 → t=4.303; CI = 4.303·2/√3.
	wantCI := 4.303 * 2 / math.Sqrt(3)
	if math.Abs(g.Best.CI95-wantCI) > 1e-9 {
		t.Errorf("best CI %v, want %v", g.Best.CI95, wantCI)
	}
	if g.HasSelection {
		t.Error("Mean group claims selection stats")
	}
	if strings.Contains(g.ID, "seed=") {
		t.Errorf("group id %q still carries a seed", g.ID)
	}

	sg := groups[1]
	if sg.N != 1 || !sg.HasSelection {
		t.Fatalf("SignGuard group N=%d HasSelection=%v", sg.N, sg.HasSelection)
	}
	if sg.Best.Std != 0 || sg.Best.CI95 != 0 {
		t.Errorf("singleton group has spread: %+v", sg.Best)
	}
	if sg.SelMalicious.Mean != 0.1 {
		t.Errorf("sel malicious mean %v", sg.SelMalicious.Mean)
	}
}

// TestGroupBySeedSingleSeedNoCI: a singleton group reports the value as its
// mean with zero spread.
func TestGroupBySeedSingleSeedNoCI(t *testing.T) {
	groups := campaign.GroupBySeed([]*campaign.CellResult{fakeResult("Mean", 7, 81.5, 80)})
	if len(groups) != 1 {
		t.Fatalf("%d groups, want 1", len(groups))
	}
	g := groups[0]
	if g.N != 1 || g.Best.Mean != 81.5 {
		t.Fatalf("singleton group: %+v", g)
	}
	if g.Best.Std != 0 || g.Best.CI95 != 0 || g.Final.Std != 0 || g.Final.CI95 != 0 {
		t.Errorf("singleton group has spread: best %+v final %+v", g.Best, g.Final)
	}
}

// TestGroupBySeedNaNMetrics: NaN accuracies (a diverged run whose
// evaluation collapsed) must not panic and must poison the group mean the
// way IEEE arithmetic says — visible, not silently dropped.
func TestGroupBySeedNaNMetrics(t *testing.T) {
	r1 := fakeResult("Mean", 1, math.NaN(), math.NaN())
	r1.Diverged = true
	r2 := fakeResult("Mean", 2, 80, 78)
	groups := campaign.GroupBySeed([]*campaign.CellResult{r1, r2})
	if len(groups) != 1 {
		t.Fatalf("%d groups, want 1", len(groups))
	}
	g := groups[0]
	if g.N != 2 || g.Diverged != 1 {
		t.Fatalf("group: N=%d diverged=%d", g.N, g.Diverged)
	}
	if !math.IsNaN(g.Best.Mean) || !math.IsNaN(g.Final.Mean) {
		t.Errorf("NaN member did not propagate: best=%v final=%v", g.Best.Mean, g.Final.Mean)
	}
}

// TestGroupBySeedMismatchedTraces: seed replicas evaluated on different
// schedules (mismatched round counts, e.g. grids merged across EvalEvery
// changes) still group on the scalar summaries without panicking.
func TestGroupBySeedMismatchedTraces(t *testing.T) {
	r1 := fakeResult("Mean", 1, 80, 78)
	r1.EvalRounds = []int{0, 2, 4}
	r1.EvalAccuracies = []float64{10, 50, 78}
	r1.TrainLoss = []float64{2, 1, 0.5, 0.4, 0.3}
	r2 := fakeResult("Mean", 2, 82, 80)
	r2.EvalRounds = []int{0, 5}
	r2.EvalAccuracies = []float64{12, 80}
	r2.TrainLoss = []float64{2, 0.9}
	groups := campaign.GroupBySeed([]*campaign.CellResult{r1, r2, nil})
	if len(groups) != 1 {
		t.Fatalf("%d groups, want 1 (nil results skipped)", len(groups))
	}
	g := groups[0]
	if g.N != 2 || g.Best.Mean != 81 || g.Final.Mean != 79 {
		t.Fatalf("group over mismatched traces: %+v", g)
	}
	if len(g.Seeds) != 2 {
		t.Errorf("seeds: %v", g.Seeds)
	}
}

func TestGroupExportFormats(t *testing.T) {
	results := []*campaign.CellResult{
		fakeResult("Mean", 1, 80, 78),
		fakeResult("Mean", 2, 82, 80),
	}
	var csvBuf bytes.Buffer
	if err := campaign.WriteExport(&csvBuf, "group-csv", results); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("group CSV has %d lines, want header+1", len(lines))
	}
	if !strings.HasPrefix(lines[0], "group_id,") {
		t.Errorf("header: %s", lines[0])
	}
	if !strings.Contains(lines[1], ",2,1 2,") {
		t.Errorf("group row lost n/seeds: %s", lines[1])
	}

	var jsonBuf bytes.Buffer
	if err := campaign.WriteExport(&jsonBuf, "group-json", results); err != nil {
		t.Fatal(err)
	}
	var groups []campaign.SeedGroup
	if err := json.Unmarshal(jsonBuf.Bytes(), &groups); err != nil {
		t.Fatal(err)
	}
	if len(groups) != 1 || groups[0].Best.Mean != 81 {
		t.Fatalf("group JSON round-trip: %+v", groups)
	}

	if err := campaign.WriteExport(&jsonBuf, "nope", results); err == nil {
		t.Error("unknown format accepted")
	}
}

func TestReplicateSeeds(t *testing.T) {
	spec := campaign.Spec{Name: "s", Cells: []campaign.Cell{
		campaign.NewCell("tiny", "Mean", "LIE", tinyParams(1)),
		campaign.NewCell("tiny", "SignGuard", "LIE", tinyParams(1)),
	}}
	out := campaign.ReplicateSeeds(spec, []int64{7, 8, 9})
	if len(out.Cells) != 6 {
		t.Fatalf("%d cells, want 6", len(out.Cells))
	}
	// Seed replicas of one cell stay contiguous.
	for i, seed := range []int64{7, 8, 9} {
		if out.Cells[i].Params.Seed != seed || out.Cells[i].Rule != "Mean" {
			t.Errorf("cell %d = %s", i, out.Cells[i].ID())
		}
	}
	if out.Cells[3].Rule != "SignGuard" {
		t.Errorf("second group rule %s", out.Cells[3].Rule)
	}
	same := campaign.ReplicateSeeds(spec, nil)
	if len(same.Cells) != 2 {
		t.Errorf("empty seed list changed the spec: %d cells", len(same.Cells))
	}
}

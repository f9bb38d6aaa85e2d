package campaign_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/signguard/signguard/internal/campaign"
)

// TestNewAxesKeepHistoricalHashes pins the cache-compatibility contract:
// a cell that uses none of the new axes (participation, hyperparameters)
// must hash exactly as it did before the fields existed.
func TestNewAxesKeepHistoricalHashes(t *testing.T) {
	base := campaign.NewCell("tiny", "Mean", "LIE", tinyParams(1))
	k1, err := base.Key()
	if err != nil {
		t.Fatal(err)
	}
	full := base
	full.Participation = "" // explicit zero values
	full.SampleK = 0
	full.RuleHyper = nil
	k2, err := full.Key()
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatal("zero-valued axis fields changed the cell hash")
	}
	// "full" is the documented-equivalent spelling of "" and must share
	// its identity.
	spelled := base
	spelled.Participation = campaign.ParticipationFull
	kFull, err := spelled.Key()
	if err != nil {
		t.Fatal(err)
	}
	if kFull != k1 {
		t.Fatal(`Participation "full" hashes differently from ""`)
	}
	sub := base
	sub.Participation = campaign.ParticipationUniform
	sub.SampleK = 4
	k3, _ := sub.Key()
	hyp := base
	hyp.RuleHyper = map[string]float64{"coord_fraction": 0.25}
	k4, _ := hyp.Key()
	if k3 == k1 || k4 == k1 || k3 == k4 {
		t.Fatal("axis fields not part of the cell identity")
	}
}

func TestSubsampleCellsThroughEngine(t *testing.T) {
	spec := campaign.Spec{Name: "subsample"}
	for _, k := range []int{4, 8} {
		c := campaign.NewCell("tiny", "SignGuard", "LIE", tinyParams(1))
		c.Participation = campaign.ParticipationUniform
		c.SampleK = k
		spec.Cells = append(spec.Cells, c)
	}
	e := &campaign.Engine{Registry: testRegistry(), Workers: 2}
	rep := mustRun(t, e, spec)
	// The tiny dataset saturates accuracy, so compare the full traces.
	h := resultHashes(t, rep)
	if h[0] == h[1] {
		t.Error("subsample size had no effect")
	}
	if len(rep.Results[0].TrainLoss) == 0 ||
		rep.Results[0].TrainLoss[len(rep.Results[0].TrainLoss)-1] ==
			rep.Results[1].TrainLoss[len(rep.Results[1].TrainLoss)-1] {
		t.Error("subsample size had no effect on the loss trajectory")
	}
	// Deterministic: a re-run (no cache) reproduces the results.
	rep2 := mustRun(t, &campaign.Engine{Registry: testRegistry(), Workers: 1}, spec)
	a, b := resultHashes(t, rep), resultHashes(t, rep2)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("subsampled cell %d not deterministic", i)
		}
	}
}

// TestSubsampledTrMeanFeasible pins the cohort-sized Byzantine grant: the
// population-level f (2 of 8 clients) would trim the entire 4-client
// cohort; the builder must cap f at the cohort's (n−1)/2 bound so the
// sweep runs instead of aborting.
func TestSubsampledTrMeanFeasible(t *testing.T) {
	c := campaign.NewCell("tiny", "TrMean", "LIE", tinyParams(1))
	c.Participation = campaign.ParticipationUniform
	c.SampleK = 4
	rep := mustRun(t, &campaign.Engine{Registry: testRegistry()}, campaign.Spec{Name: "trm", Cells: []campaign.Cell{c}})
	if rep.Results[0].Diverged {
		t.Error("subsampled TrMean diverged under LIE")
	}
}

func TestHyperCellsThroughEngine(t *testing.T) {
	spec := campaign.Spec{Name: "coordfrac"}
	for _, cf := range []float64{0.1, 1.0} {
		c := campaign.NewCell("tiny", "SignGuard", "LIE", tinyParams(1))
		c.RuleHyper = map[string]float64{"coord_fraction": cf}
		spec.Cells = append(spec.Cells, c)
	}
	rep := mustRun(t, &campaign.Engine{Registry: testRegistry(), Workers: 2}, spec)
	h := resultHashes(t, rep)
	if h[0] == h[1] {
		t.Error("coord_fraction hyperparameter had no effect on results")
	}
}

func TestValidateRejectsBadAxes(t *testing.T) {
	reg := testRegistry()
	p := tinyParams(1)

	bad := campaign.NewCell("tiny", "SignGuard", "LIE", p)
	bad.RuleHyper = map[string]float64{"not_a_hyper": 1}
	if err := reg.Validate(campaign.Spec{Name: "x", Cells: []campaign.Cell{bad}}); err == nil ||
		!strings.Contains(err.Error(), "not_a_hyper") {
		t.Errorf("unknown hyperparameter passed validation: %v", err)
	}

	badPart := campaign.NewCell("tiny", "Mean", "LIE", p)
	badPart.Participation = "lottery"
	if err := reg.Validate(campaign.Spec{Name: "x", Cells: []campaign.Cell{badPart}}); err == nil {
		t.Error("unknown participation policy passed validation")
	}

	badK := campaign.NewCell("tiny", "Mean", "LIE", p)
	badK.Participation = campaign.ParticipationUniform
	badK.SampleK = p.Clients + 5
	if err := reg.Validate(campaign.Spec{Name: "x", Cells: []campaign.Cell{badK}}); err == nil {
		t.Error("oversized SampleK passed validation")
	}

	strayK := campaign.NewCell("tiny", "Mean", "LIE", p)
	strayK.SampleK = 3 // without uniform participation
	if err := reg.Validate(campaign.Spec{Name: "x", Cells: []campaign.Cell{strayK}}); err == nil {
		t.Error("SampleK without uniform participation passed validation")
	}
}

func TestStoreIndexFastMembership(t *testing.T) {
	dir := t.TempDir()
	store, err := campaign.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := fakeResult("Mean", 1, 80, 78)
	key, err := r.Cell.Key()
	if err != nil {
		t.Fatal(err)
	}
	r.Key = key
	if err := store.Put(r); err != nil {
		t.Fatal(err)
	}
	// Puts accumulate in memory; the same store answers immediately, and
	// Flush (one write per campaign) persists for other processes.
	if !store.Contains(key) {
		t.Error("own Put not visible before Flush")
	}
	if err := store.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "index.json")); err != nil {
		t.Fatalf("Flush did not write the index: %v", err)
	}

	// A fresh Store answers membership from the index.
	fresh, err := campaign.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !fresh.Contains(key) {
		t.Error("index misses a stored key")
	}
	if fresh.Contains("nope") {
		t.Error("index contains an unknown key")
	}
	idx, err := fresh.Index()
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := idx[key]; !ok || e.ID != r.Cell.ID() {
		t.Errorf("index entry %+v", e)
	}

	// A corrupted index is rebuilt from the stored results.
	if err := os.WriteFile(filepath.Join(dir, "index.json"), []byte("{garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	rebuilt, err := campaign.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rebuilt.Contains(key) {
		t.Error("corrupt index not rebuilt")
	}

	// An index that disagrees with the directory (entry written by another
	// process) is rebuilt too.
	other := fakeResult("SignGuard", 2, 90, 88)
	otherKey, _ := other.Cell.Key()
	other.Key = otherKey
	writer, _ := campaign.OpenStore(dir)
	if err := writer.Put(other); err != nil {
		t.Fatal(err)
	}
	stale, _ := campaign.OpenStore(dir)
	if !stale.Contains(key) || !stale.Contains(otherKey) {
		t.Error("index not refreshed after out-of-band writes")
	}

	// Delete drops the entry from both the directory and the index.
	if err := stale.Delete(key); err != nil {
		t.Fatal(err)
	}
	if stale.Contains(key) {
		t.Error("deleted key still in index")
	}
	after, _ := campaign.OpenStore(dir)
	if after.Contains(key) || !after.Contains(otherKey) {
		t.Error("persisted index out of sync after delete")
	}

	// Keys never reports the index file itself.
	keys, err := after.Keys()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if k == "index" {
			t.Error("index file leaked into Keys()")
		}
	}
}

// TestBatchedAxisIdentity pins the retired engine axes' hash contract: the
// zero value keeps the historical cell hash (cache compatibility), and a
// set axis still yields the distinct identity and ID suffix it was stored
// under, so historical keys stay decodable.
func TestBatchedAxisIdentity(t *testing.T) {
	base := campaign.NewCell("tiny", "Mean", "LIE", tinyParams(1))
	k1, err := base.Key()
	if err != nil {
		t.Fatal(err)
	}
	zero := base
	zero.BatchClients = false
	zero.FastLocal = false
	k2, err := zero.Key()
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatal("zero-valued batched axis changed the cell hash")
	}
	batched := base
	batched.BatchClients = true
	kb, _ := batched.Key()
	fast := batched
	fast.FastLocal = true
	kf, _ := fast.Key()
	if kb == k1 || kf == k1 || kb == kf {
		t.Fatal("batched/fast axes not part of the cell identity")
	}
	if id := fast.ID(); !strings.Contains(id, "batched-fast") {
		t.Errorf("fast cell ID %q does not name the engine", id)
	}
}

// TestBatchedCellsThroughEngine: cells carrying the retired BatchClients
// axis remain runnable and reproduce the plain cell's results exactly
// (traces included) — which is why their old cache entries are still
// correct hits.
func TestBatchedCellsThroughEngine(t *testing.T) {
	cell := campaign.NewCell("tiny", "SignGuard", "LIE", tinyParams(1))
	batchedCell := cell
	batchedCell.BatchClients = true
	spec := campaign.Spec{Name: "batched", Cells: []campaign.Cell{cell, batchedCell}}
	rep := mustRun(t, &campaign.Engine{Registry: testRegistry(), Workers: 2}, spec)

	a, b := rep.Results[0], rep.Results[1]
	if a.BestAccuracy != b.BestAccuracy || a.FinalAccuracy != b.FinalAccuracy {
		t.Errorf("accuracies diverged: %v/%v vs %v/%v", a.BestAccuracy, a.FinalAccuracy, b.BestAccuracy, b.FinalAccuracy)
	}
	if len(a.TrainLoss) != len(b.TrainLoss) {
		t.Fatal("loss trace lengths differ")
	}
	for i := range a.TrainLoss {
		if a.TrainLoss[i] != b.TrainLoss[i] {
			t.Fatalf("round %d loss diverged", i)
		}
	}
}

// TestValidateRefusesFastLocal: a FastLocal key promises results of the
// removed non-bitwise kernels; storing exact results under it would be a
// silent lie, so validation refuses the cell and says why.
func TestValidateRefusesFastLocal(t *testing.T) {
	for _, batch := range []bool{false, true} {
		bad := campaign.NewCell("tiny", "Mean", "LIE", tinyParams(1))
		bad.BatchClients, bad.FastLocal = batch, true
		err := testRegistry().Validate(campaign.Spec{Name: "x", Cells: []campaign.Cell{bad}})
		if err == nil || !strings.Contains(err.Error(), "FastLocal") || !strings.Contains(err.Error(), "removed") {
			t.Errorf("FastLocal (BatchClients=%v) passed validation or hid the reason: %v", batch, err)
		}
	}
}

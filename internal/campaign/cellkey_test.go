package campaign_test

import (
	"testing"

	"github.com/signguard/signguard/internal/campaign"
)

// goldenCell is a fixed pre-extension cell whose key is pinned below. Any
// change to the hash input — a new non-omitempty field, a renamed axis, a
// different Params encoding — moves the key and fails the test loudly,
// because it would orphan every cached campaign result on disk.
func goldenCell() campaign.Cell {
	return campaign.NewCell("mnist", "Mean", "LIE", campaign.Params{
		Clients: 8, ByzFraction: 0.25, Rounds: 6, BatchSize: 4,
		EvalEvery: 3, EvalSamples: 40, TrainSize: 160, TestSize: 60, Seed: 1,
	})
}

const goldenCellKey = "6e84abaec4ae43d5eec0ab130ff58244a387bf4931db7074ac3074ff4521fb09"

// TestCellKeyGolden pins the content hash of a fixed cell to a literal.
func TestCellKeyGolden(t *testing.T) {
	key, err := goldenCell().Key()
	if err != nil {
		t.Fatal(err)
	}
	if key != goldenCellKey {
		t.Fatalf("golden cell key moved: %s (pinned %s) — this invalidates every on-disk campaign cache", key, goldenCellKey)
	}
}

// The two engine axes were retired in PR 14 (they select nothing), but keys
// minted while they meant something are on disk. These literals were
// recorded at the parent commit (PR 13): goldenCell() with BatchClients set,
// and with BatchClients and FastLocal both set.
const (
	goldenBatchedCellKey     = "27e8c66a2739c850fcda84b6dda019703721c4a9b012152d14f0519858b39f4d"
	goldenBatchedFastCellKey = "5f1b48cba1677f8ed0d1b552247ce0a7424fc1bb07131ca87dd261f22c938071"
)

// TestCellKeyRetiredAxesStillHash: the retired axes must keep hashing (and
// naming themselves in ID()) exactly as they did, so no stored key moves.
func TestCellKeyRetiredAxesStillHash(t *testing.T) {
	cell := goldenCell()
	cell.BatchClients = true
	for _, want := range []struct{ key, id string }{
		{goldenBatchedCellKey, "mnist/Mean/LIE/batched/seed=1"},
		{goldenBatchedFastCellKey, "mnist/Mean/LIE/batched-fast/seed=1"},
	} {
		key, err := cell.Key()
		if err != nil {
			t.Fatal(err)
		}
		if key != want.key || cell.ID() != want.id {
			t.Errorf("retired-axis cell moved: key %s id %s, pinned %s %s", key, cell.ID(), want.key, want.id)
		}
		cell.FastLocal = true
	}
}

// TestCellKeyExtensionAxesAreFree asserts the hash-compatibility contract
// every extension axis must honor: setting an axis to its zero value leaves
// the key identical to a cell that predates the axis. This is what lets new
// axes (RuleHyper, Codec, Participation, ...) land without invalidating
// cached results for the grid that never uses them.
func TestCellKeyExtensionAxesAreFree(t *testing.T) {
	for name, set := range map[string]func(*campaign.Cell){
		"attackParam":     func(c *campaign.Cell) { c.AttackParam = 0 },
		"ruleHyper":       func(c *campaign.Cell) { c.RuleHyper = map[string]float64{} },
		"participation":   func(c *campaign.Cell) { c.Participation = "" },
		"sampleK":         func(c *campaign.Cell) { c.SampleK = 0 },
		"nonIIDS":         func(c *campaign.Cell) { c.NonIIDS = 0 },
		"nonIIDShards":    func(c *campaign.Cell) { c.NonIIDShards = 0 },
		"batchClients":    func(c *campaign.Cell) { c.BatchClients = false },
		"fastLocal":       func(c *campaign.Cell) { c.FastLocal = false },
		"codec":           func(c *campaign.Cell) { c.Codec = "" },
		"codecHyper":      func(c *campaign.Cell) { c.CodecHyper = map[string]float64{} },
		"nonFinitePolicy": func(c *campaign.Cell) { c.NonFinitePolicy = "" },
		"probe":           func(c *campaign.Cell) { c.Probe = "" },
		"probeParam":      func(c *campaign.Cell) { c.ProbeParam = 0 },
	} {
		cell := goldenCell()
		set(&cell)
		key, err := cell.Key()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if key != goldenCellKey {
			t.Errorf("zero-valued %s axis changed the key to %s — extension axes must be free when unused", name, key)
		}
	}
}

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

// TestCellKeyExtensionAxesAreFree asserts the hash-compatibility contract
// every extension axis must honor: setting an axis to its zero value leaves
// the key identical to a cell that predates the axis. This is what lets new
// axes (Codec, Probe, ...) land without invalidating
// cached results for the grid that never uses them.
func TestCellKeyExtensionAxesAreFree(t *testing.T) {
	for name, set := range map[string]func(*campaign.Cell){
		"attackParam":  func(c *campaign.Cell) { c.AttackParam = 0 },
		"nonIIDS":      func(c *campaign.Cell) { c.NonIIDS = 0 },
		"nonIIDShards": func(c *campaign.Cell) { c.NonIIDShards = 0 },
		"codec":        func(c *campaign.Cell) { c.Codec = "" },
		"probe":        func(c *campaign.Cell) { c.Probe = "" },
		"probeParam":   func(c *campaign.Cell) { c.ProbeParam = 0 },
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

package campaign_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"github.com/signguard/signguard/internal/campaign"
)

// seedStore fills a fresh store with n hand-built results (real cell
// hashes, no training) and flushes its index. Returns the store directory
// and the keys in insertion order.
func seedStore(t *testing.T, n int) (string, []string) {
	t.Helper()
	dir := t.TempDir()
	store, err := campaign.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, n)
	for i := range keys {
		c := campaign.NewCell("tiny", "Mean", "SignFlip", tinyParams(int64(100+i)))
		key, err := c.Key()
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = key
		res := &campaign.CellResult{Key: key, Cell: c, BestAccuracy: float64(i), DurationMS: int64(i + 1)}
		if err := store.Put(res); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Flush(); err != nil {
		t.Fatal(err)
	}
	return dir, keys
}

// corruptIndexVariants covers the ways a crash or a stray editor can break
// index.json: invalid JSON, a truncated document, and an empty file.
var corruptIndexVariants = map[string]func([]byte) []byte{
	"garbage":   func([]byte) []byte { return []byte("{not json at all") },
	"truncated": func(raw []byte) []byte { return raw[:len(raw)/2] },
	"empty":     func([]byte) []byte { return nil },
}

// TestIndexRebuildAfterCorruption: whatever happened to index.json, a fresh
// store must answer membership correctly by rebuilding from the per-cell
// result files — and must heal the index file on disk while doing so.
func TestIndexRebuildAfterCorruption(t *testing.T) {
	for name, corrupt := range corruptIndexVariants {
		t.Run(name, func(t *testing.T) {
			dir, keys := seedStore(t, 3)
			idxPath := filepath.Join(dir, "index.json")
			raw, err := os.ReadFile(idxPath)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(idxPath, corrupt(raw), 0o644); err != nil {
				t.Fatal(err)
			}

			store, err := campaign.OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, key := range keys {
				if !store.Contains(key) {
					t.Errorf("rebuilt index lost key %s", key)
				}
			}
			if store.Contains("not-a-key") {
				t.Error("rebuilt index invented a key")
			}
			idx, err := store.Index()
			if err != nil {
				t.Fatal(err)
			}
			if len(idx) != len(keys) {
				t.Fatalf("rebuilt index holds %d entries, want %d", len(idx), len(keys))
			}
			for _, ent := range idx {
				if ent.ID == "" {
					t.Error("rebuilt entry lost its cell ID")
				}
			}

			// The rebuild must have healed the on-disk file: a brand-new
			// store (no rebuild needed) reads the same membership.
			healed, err := os.ReadFile(idxPath)
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				Cells map[string]campaign.IndexEntry
			}
			if err := json.Unmarshal(healed, &doc); err != nil {
				t.Fatalf("healed index is not valid JSON: %v", err)
			}
			if len(doc.Cells) != len(keys) {
				t.Errorf("healed index lists %d cells, want %d", len(doc.Cells), len(keys))
			}
		})
	}
}

// TestIndexRebuildAfterDrift: results written or deleted behind the index's
// back (another process, manual rm) are detected by the key-set comparison
// and force a rebuild.
func TestIndexRebuildAfterDrift(t *testing.T) {
	dir, keys := seedStore(t, 2)

	// Delete one result file without touching the index.
	if err := os.Remove(filepath.Join(dir, keys[0]+".json")); err != nil {
		t.Fatal(err)
	}
	store, err := campaign.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if store.Contains(keys[0]) {
		t.Error("index still lists an out-of-band-deleted result")
	}
	if !store.Contains(keys[1]) {
		t.Error("surviving result lost in the rebuild")
	}
}

// TestPutAgainReplacesEntry: storing a result under a key the store
// already holds (a recomputed cell, or a file copied in from another
// store) replaces it; the store still lists the key once, on disk and in
// the flushed index, and serves the newer result.
func TestPutAgainReplacesEntry(t *testing.T) {
	dir, keys := seedStore(t, 2)
	store, err := campaign.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	old, ok := store.Get(keys[0])
	if !ok {
		t.Fatalf("seeded key %s not found", keys[0])
	}
	again := *old
	again.DurationMS = 99
	if err := store.Put(&again); err != nil {
		t.Fatal(err)
	}
	if err := store.Flush(); err != nil {
		t.Fatal(err)
	}

	reopened, err := campaign.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	stored, err := reopened.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(stored) != len(keys) {
		t.Errorf("store holds %d result files, want %d", len(stored), len(keys))
	}
	idx, err := reopened.Index()
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != len(keys) || idx[keys[0]].DurationMS != 99 {
		t.Errorf("index after re-put: %d entries, %s at %d ms; want %d entries, 99 ms",
			len(idx), keys[0], idx[keys[0]].DurationMS, len(keys))
	}
	if got, ok := reopened.Get(keys[0]); !ok || got.DurationMS != 99 {
		t.Errorf("re-put result not served: ok=%v %+v", ok, got)
	}
}

// TestIndexAbsentRebuild: a store directory predating the index (or whose
// index was deleted) rebuilds silently.
func TestIndexAbsentRebuild(t *testing.T) {
	dir, keys := seedStore(t, 2)
	if err := os.Remove(filepath.Join(dir, "index.json")); err != nil {
		t.Fatal(err)
	}
	store, err := campaign.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range keys {
		if !store.Contains(key) {
			t.Errorf("missing-index rebuild lost key %s", key)
		}
	}
}

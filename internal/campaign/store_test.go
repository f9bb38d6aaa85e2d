package campaign_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"github.com/signguard/signguard/internal/campaign"
)

// seedStore fills a fresh store with n hand-built results (real cell
// hashes, no training). Returns the store directory and the keys in
// insertion order.
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
	return dir, keys
}

// TestPutAgainReplacesEntry: storing a result under a key the store
// already holds (a recomputed cell, or a file copied in from another
// store) replaces it; the directory still holds one file per key, and a
// reopened store serves the newer result.
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

	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(keys) {
		t.Errorf("store directory holds %d files, want %d", len(files), len(keys))
	}
	for _, key := range keys {
		if _, err := os.Stat(filepath.Join(dir, key+".json")); err != nil {
			t.Errorf("no result file for %s: %v", key, err)
		}
	}
	reopened, err := campaign.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := reopened.Get(keys[0]); !ok || got.DurationMS != 99 {
		t.Errorf("re-put result not served: ok=%v %+v", ok, got)
	}
}

// TestGetMissesDamagedEntries: the result files are the store's only
// record, so Get alone decides whether a cell is stored. Whatever happened
// to <key>.json, an entry that does not decode to that key's result under
// this build's schema is a miss, and only that entry is.
func TestGetMissesDamagedEntries(t *testing.T) {
	for name, damage := range map[string]func(path string, raw, other []byte) error{
		"garbage":   func(path string, _, _ []byte) error { return os.WriteFile(path, []byte("{not json at all"), 0o644) },
		"truncated": func(path string, raw, _ []byte) error { return os.WriteFile(path, raw[:len(raw)/2], 0o644) },
		"empty":     func(path string, _, _ []byte) error { return os.WriteFile(path, nil, 0o644) },
		"missing":   func(path string, _, _ []byte) error { return os.Remove(path) },
		"other schema": func(path string, raw, _ []byte) error {
			return os.WriteFile(path, bytes.Replace(raw, []byte(`"SchemaVersion":1`), []byte(`"SchemaVersion":2`), 1), 0o644)
		},
		"other key": func(path string, _, other []byte) error { return os.WriteFile(path, other, 0o644) },
	} {
		t.Run(name, func(t *testing.T) {
			dir, keys := seedStore(t, 2)
			path := filepath.Join(dir, keys[0]+".json")
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			other, err := os.ReadFile(filepath.Join(dir, keys[1]+".json"))
			if err != nil {
				t.Fatal(err)
			}
			if err := damage(path, raw, other); err != nil {
				t.Fatal(err)
			}
			store, err := campaign.OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			if res, ok := store.Get(keys[0]); ok {
				t.Errorf("damaged entry served: %+v", res)
			}
			if _, ok := store.Get(keys[1]); !ok {
				t.Error("the undamaged entry is no longer served")
			}
		})
	}
}

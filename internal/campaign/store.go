package campaign

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Store is a content-addressed on-disk result cache: one JSON file per
// cell, named by the cell's spec hash. Those files are the store's only
// record, so copying them into another store's directory merges the two.
// Writes are atomic (temp file + rename), so an interrupted campaign leaves
// only complete entries and can resume from whatever finished.
type Store struct {
	dir string
}

// OpenStore opens (creating if needed) a store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("campaign: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: opening store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key+".json")
}

// storedResult is the on-disk envelope; SchemaVersion guards against
// format drift between builds sharing a cache directory.
type storedResult struct {
	SchemaVersion int
	Result        *CellResult
}

// Get loads the result stored under key. A missing, unreadable or
// schema-mismatched entry is reported as a miss, never an error: the engine
// recomputes and overwrites.
func (s *Store) Get(key string) (*CellResult, bool) {
	raw, err := os.ReadFile(s.path(key))
	if err != nil {
		return nil, false
	}
	var env storedResult
	if err := json.Unmarshal(raw, &env); err != nil {
		return nil, false
	}
	if env.SchemaVersion != specVersion || env.Result == nil || env.Result.Key != key {
		return nil, false
	}
	// Anything read back from the store is by definition a cached result;
	// Cached is never serialized, so stamp it here.
	env.Result.Cached = true
	return env.Result, true
}

// Put atomically persists a result under its key: it writes a temp file in
// the store directory and renames it over <key>.json.
func (s *Store) Put(r *CellResult) error {
	raw, err := json.Marshal(storedResult{SchemaVersion: specVersion, Result: r})
	if err != nil {
		return fmt.Errorf("campaign: encoding result %s: %w", r.Key, err)
	}
	tmp, err := os.CreateTemp(s.dir, "put-*.tmp")
	if err != nil {
		return fmt.Errorf("campaign: storing result: %w", err)
	}
	_, err = tmp.Write(raw)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), s.path(r.Key))
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("campaign: storing result: %w", err)
	}
	return nil
}

// Flush does nothing and returns nil: every Put is already on disk. It is
// kept because the repository benchmark (bench/campaign.go) calls it.
func (s *Store) Flush() error { return nil }

package campaign_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/signguard/signguard/internal/campaign"
)

// uniqueKeys returns the spec's cell keys deduplicated, in spec order.
func uniqueKeys(t *testing.T, spec campaign.Spec) []string {
	t.Helper()
	var keys []string
	seen := map[string]bool{}
	for _, c := range spec.Cells {
		k, err := c.Key()
		if err != nil {
			t.Fatal(err)
		}
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys
}

// exportGroupJSON renders the stored results for keys, in order, the way
// `campaign export -format group-json` does.
func exportGroupJSON(t *testing.T, store *campaign.Store, keys []string) []byte {
	t.Helper()
	results := make([]*campaign.CellResult, 0, len(keys))
	for _, k := range keys {
		res, ok := store.Get(k)
		if !ok {
			t.Fatalf("store %s is missing cell %s", store.Dir(), k)
		}
		results = append(results, res)
	}
	var buf bytes.Buffer
	if err := campaign.WriteExport(&buf, "group-json", results); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// copyFiles copies every file of dir src into dst with plain file copies,
// overwriting what dst already holds under the same name.
func copyFiles(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// openStore opens a store in a fresh temporary directory.
func openStore(t *testing.T) *campaign.Store {
	t.Helper()
	store, err := campaign.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// probed returns spec with every cell naming testRegistry's "rounds"
// probe. A probe builder is the one per-cell seam that is handed the cell,
// so the engine tests that record or fail cells hook in there.
func probed(spec campaign.Spec) campaign.Spec {
	out := campaign.Spec{Name: spec.Name, Cells: slices.Clone(spec.Cells)}
	for i := range out.Cells {
		out.Cells[i].Probe = "rounds"
	}
	return out
}

// hookRounds replaces reg's "rounds" probe with one that calls before with
// the cell first, and builds the original probe only if before returns nil.
func hookRounds(t *testing.T, reg *campaign.Registry, before func(campaign.Cell) error) {
	t.Helper()
	rounds, err := reg.Probes.Lookup("rounds")
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Probes.Register("rounds", campaign.Probe{Name: "rounds", New: func(c campaign.Cell) (*campaign.ProbeInstance, error) {
		if err := before(c); err != nil {
			return nil, err
		}
		return rounds.New(c)
	}}); err != nil {
		t.Fatal(err)
	}
}

// recordingRegistry is testRegistry whose "rounds" probe also records, in
// call order, the ID of every cell it is built for: one entry per execution
// of a probed cell. The returned function reads a copy of the record.
func recordingRegistry(t *testing.T) (*campaign.Registry, func() []string) {
	reg := testRegistry()
	var (
		mu  sync.Mutex
		ids []string
	)
	hookRounds(t, reg, func(c campaign.Cell) error {
		mu.Lock()
		ids = append(ids, c.ID())
		mu.Unlock()
		return nil
	})
	return reg, func() []string {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(ids)
	}
}

// cellIDs returns the IDs of spec.Cells at the given positions.
func cellIDs(spec campaign.Spec, positions ...int) []string {
	ids := make([]string, len(positions))
	for i, p := range positions {
		ids[i] = spec.Cells[p].ID()
	}
	return ids
}

// TestRunClaimsCellsInSpecOrder: the scheduler is a FIFO over the pending
// cells. Cache hits are reported before any cell runs, a repeated cell runs
// once at its first position, and the rest run in spec order.
func TestRunClaimsCellsInSpecOrder(t *testing.T) {
	base := probed(testSpec())
	store := openStore(t)
	mustRun(t, &campaign.Engine{Registry: testRegistry(), Store: store, Workers: 1},
		campaign.Spec{Name: "warm", Cells: []campaign.Cell{base.Cells[1], base.Cells[6]}})

	spec := campaign.Merge("ordered", base, campaign.Spec{Cells: []campaign.Cell{base.Cells[2], base.Cells[0]}})
	reg, executed := recordingRegistry(t)
	var reported []string
	rep := mustRun(t, &campaign.Engine{
		Registry: reg, Store: store, Workers: 1,
		Progress: func(ev campaign.ProgressEvent) { reported = append(reported, ev.Cell.ID()) },
	}, spec)

	wantRun := cellIDs(base, 0, 2, 3, 4, 5, 7)
	if got := executed(); !slices.Equal(got, wantRun) {
		t.Errorf("execution order:\n got %q\nwant %q", got, wantRun)
	}
	if want := append(cellIDs(base, 1, 6), wantRun...); !slices.Equal(reported, want) {
		t.Errorf("progress order:\n got %q\nwant %q", reported, want)
	}
	if rep.Executed != len(wantRun) || rep.CacheHits != 2 {
		t.Errorf("executed=%d hits=%d, want %d/2", rep.Executed, rep.CacheHits, len(wantRun))
	}
}

// TestRunExecutesEachPendingCellOnce: whether the workers sharing the
// cursor are fewer than, about as many as, or more than the pending cells,
// each pending cell is executed exactly once, no cached cell is executed,
// and every spec position — repeats included — gets its own cell's result.
func TestRunExecutesEachPendingCellOnce(t *testing.T) {
	base := probed(testSpec())
	const warm = 3
	spec := campaign.Merge("twice", base, base)
	for _, workers := range []int{1, 2, 3, 16} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			store := openStore(t)
			mustRun(t, &campaign.Engine{Registry: testRegistry(), Store: store, Workers: 2},
				campaign.Spec{Name: "warm", Cells: base.Cells[:warm]})

			reg, executed := recordingRegistry(t)
			rep := mustRun(t, &campaign.Engine{Registry: reg, Store: store, Workers: workers}, spec)

			counts := map[string]int{}
			for _, id := range executed() {
				counts[id]++
			}
			for i, c := range base.Cells {
				want := 1
				if i < warm {
					want = 0
				}
				if counts[c.ID()] != want {
					t.Errorf("cell %s executed %d times, want %d", c.ID(), counts[c.ID()], want)
				}
			}
			if len(counts) != len(base.Cells)-warm {
				t.Errorf("%d distinct cells executed, want %d", len(counts), len(base.Cells)-warm)
			}
			if rep.Executed != len(base.Cells)-warm || rep.CacheHits != warm {
				t.Errorf("executed=%d hits=%d, want %d/%d", rep.Executed, rep.CacheHits, len(base.Cells)-warm, warm)
			}
			for i, r := range rep.Results {
				key, err := spec.Cells[i].Key()
				if err != nil {
					t.Fatal(err)
				}
				if r.Key != key {
					t.Errorf("position %d holds the result of %s, want %s", i, r.Key, key)
				}
			}
		})
	}
}

// TestCancelStopsClaimingCells: once the caller cancels, no worker claims
// another cell. The run returns the context's error, the cell that did
// finish is stored, and a re-run executes only the rest.
func TestCancelStopsClaimingCells(t *testing.T) {
	spec := probed(testSpec())
	store := openStore(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reg, executed := recordingRegistry(t)
	e := &campaign.Engine{
		Registry: reg, Store: store, Workers: 1,
		Progress: func(campaign.ProgressEvent) { cancel() },
	}
	if _, err := e.Run(ctx, spec); !errors.Is(err, context.Canceled) {
		t.Fatalf("run error = %v, want context.Canceled", err)
	}
	if got, want := executed(), cellIDs(spec, 0); !slices.Equal(got, want) {
		t.Fatalf("cells executed around the cancel: %q, want %q", got, want)
	}
	key, err := spec.Cells[0].Key()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Get(key); !ok {
		t.Errorf("the cell finished before the cancel is not stored")
	}

	rep := mustRun(t, &campaign.Engine{Registry: testRegistry(), Store: store, Workers: 2}, spec)
	if rep.Executed != len(spec.Cells)-1 || rep.CacheHits != 1 {
		t.Errorf("re-run: executed=%d hits=%d, want %d/1", rep.Executed, rep.CacheHits, len(spec.Cells)-1)
	}
}

// TestOverlappingSharesMergeByFileCopy splits a grid by -filter the way
// two hosts would, with shares that overlap: A runs the SignFlip cells, B
// the LIE cells and then every seed=2 cell. Both hosts compute the shared
// cells to the same result, so the copy that overwrites them is harmless:
// the merged store serves the whole grid from cache and exports what a
// one-store run exports.
func TestOverlappingSharesMergeByFileCopy(t *testing.T) {
	spec := testSpec()
	dirA, dirB, dirOne := t.TempDir(), t.TempDir(), t.TempDir()
	for _, part := range []struct {
		dir   string
		specs []campaign.Spec
	}{
		{dirA, []campaign.Spec{spec.Filter("SignFlip")}},
		{dirB, []campaign.Spec{spec.Filter("LIE"), spec.Filter("seed=2")}},
		{dirOne, []campaign.Spec{spec}},
	} {
		store, err := campaign.OpenStore(part.dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range part.specs {
			mustRun(t, &campaign.Engine{Registry: testRegistry(), Store: store, Workers: 2}, s)
		}
	}

	storeA, err := campaign.OpenStore(dirA)
	if err != nil {
		t.Fatal(err)
	}
	storeB, err := campaign.OpenStore(dirB)
	if err != nil {
		t.Fatal(err)
	}
	shared := uniqueKeys(t, spec.Filter("SignFlip").Filter("seed=2"))
	if len(shared) == 0 {
		t.Fatal("the two shares do not overlap")
	}
	for _, k := range shared {
		a, okA := storeA.Get(k)
		b, okB := storeB.Get(k)
		if !okA || !okB {
			t.Fatalf("shared cell %s: in A %v, in B %v", k, okA, okB)
		}
		ha, err := a.Hash()
		if err != nil {
			t.Fatal(err)
		}
		hb, err := b.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if ha != hb {
			t.Errorf("shared cell %s: hosts computed different results", k)
		}
	}

	copyFiles(t, dirB, dirA)
	merged, err := campaign.OpenStore(dirA)
	if err != nil {
		t.Fatal(err)
	}
	keys := uniqueKeys(t, spec)
	for _, k := range keys {
		if _, ok := merged.Get(k); !ok {
			t.Errorf("merged store does not serve %s", k)
		}
	}
	rep := mustRun(t, &campaign.Engine{Registry: testRegistry(), Store: merged, Workers: 2}, spec)
	if rep.Executed != 0 || rep.CacheHits != len(keys) {
		t.Errorf("merged re-run: executed=%d hits=%d, want 0/%d", rep.Executed, rep.CacheHits, len(keys))
	}

	one, err := campaign.OpenStore(dirOne)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := exportGroupJSON(t, merged, keys), exportGroupJSON(t, one, keys); !bytes.Equal(got, want) {
		t.Errorf("merged group-json differs from a one-store run:\nmerged:\n%s\none store:\n%s", got, want)
	}
}

// TestSplitGridMergedByFileCopy pins how one grid is split across
// machines: each host runs a disjoint seed list into its own store, and
// the stores merge by copying one's result files into the other. The
// merged store must serve the whole grid as cache hits and export exactly
// what a one-store run exports.
func TestSplitGridMergedByFileCopy(t *testing.T) {
	full := campaign.ReplicateSeeds(testSpec(), []int64{1, 2})
	dirA, dirB, dirOne := t.TempDir(), t.TempDir(), t.TempDir()
	for _, part := range []struct {
		dir   string
		seeds []int64
	}{{dirA, []int64{1}}, {dirB, []int64{2}}, {dirOne, []int64{1, 2}}} {
		store, err := campaign.OpenStore(part.dir)
		if err != nil {
			t.Fatal(err)
		}
		mustRun(t, &campaign.Engine{Registry: testRegistry(), Store: store, Workers: 2},
			campaign.ReplicateSeeds(testSpec(), part.seeds))
	}

	copyFiles(t, dirB, dirA)

	merged, err := campaign.OpenStore(dirA)
	if err != nil {
		t.Fatal(err)
	}
	keys := uniqueKeys(t, full)
	for _, k := range keys {
		if _, ok := merged.Get(k); !ok {
			t.Errorf("merged store does not serve %s", k)
		}
	}
	rep := mustRun(t, &campaign.Engine{Registry: testRegistry(), Store: merged, Workers: 2}, full)
	if rep.Executed != 0 || rep.CacheHits != len(keys) {
		t.Errorf("merged re-run: executed=%d hits=%d, want 0/%d", rep.Executed, rep.CacheHits, len(keys))
	}

	one, err := campaign.OpenStore(dirOne)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := exportGroupJSON(t, merged, keys), exportGroupJSON(t, one, keys); !bytes.Equal(got, want) {
		t.Errorf("merged group-json differs from a one-store run:\nmerged:\n%s\none store:\n%s", got, want)
	}
}

// TestFailFastKeepsCompletedCells: a cell that fails aborts the run with
// an error naming it. Every cell reported complete before the abort is in
// the store, and a re-run with a working registry executes only the cells
// still missing.
func TestFailFastKeepsCompletedCells(t *testing.T) {
	spec := probed(testSpec())
	bad := spec.Cells[5]
	reg := testRegistry()
	hookRounds(t, reg, func(c campaign.Cell) error {
		if c.ID() == bad.ID() {
			return errors.New("injected failure")
		}
		return nil
	})

	dir := t.TempDir()
	store, err := campaign.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var reported []string
	e := &campaign.Engine{
		Registry: reg, Store: store, Workers: 2,
		Progress: func(ev campaign.ProgressEvent) { reported = append(reported, ev.Key) },
	}
	_, err = e.Run(context.Background(), spec)
	if err == nil || !strings.Contains(err.Error(), bad.ID()) {
		t.Fatalf("run error = %v, want one naming %s", err, bad.ID())
	}
	if len(reported) == 0 || len(reported) >= len(spec.Cells) {
		t.Fatalf("%d cells reported before the abort, want between 1 and %d", len(reported), len(spec.Cells)-1)
	}

	for _, k := range reported {
		if _, ok := store.Get(k); !ok {
			t.Errorf("reported cell %s is not stored", k)
		}
	}

	rep := mustRun(t, &campaign.Engine{Registry: testRegistry(), Store: store, Workers: 2}, spec)
	if want := len(spec.Cells) - len(reported); rep.Executed != want || rep.CacheHits != len(reported) {
		t.Errorf("re-run: executed=%d hits=%d, want %d/%d", rep.Executed, rep.CacheHits, want, len(reported))
	}
}

// TestNonFiniteScreenedReachesResult: a NaN-injection cell trains on
// through the engine, and the stored result carries the round pipeline's
// count of refused submissions.
func TestNonFiniteScreenedReachesResult(t *testing.T) {
	c := campaign.NewCell("tiny", "Mean", "NonFinite-NaN", tinyParams(1))
	rep := mustRun(t, &campaign.Engine{Registry: testRegistry(), Workers: 1}, campaign.Spec{Name: "nan", Cells: []campaign.Cell{c}})
	r := rep.Results[0]
	if want := c.EffectiveByz() * c.Params.Rounds; r.Diverged || r.NonFiniteScreened != want {
		t.Errorf("Diverged = %v, NonFiniteScreened = %d; want a completed run that screened %d", r.Diverged, r.NonFiniteScreened, want)
	}
}

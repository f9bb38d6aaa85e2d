package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/signguard/signguard/internal/campaign"
	"github.com/signguard/signguard/internal/codec"
	"github.com/signguard/signguard/internal/experiments"
)

// TestRemovedSubcommandsAreUnknown: `campaign run` is the only scheduler.
// The coordinator and worker subcommands are refused by name, whatever
// flags they are given, instead of starting anything.
func TestRemovedSubcommandsAreUnknown(t *testing.T) {
	for _, cmd := range []string{"serve", "work"} {
		t.Run(cmd, func(t *testing.T) {
			err := dispatch(cmd, []string{"-addr", "127.0.0.1:0", "-workers", "1"})
			if want := `unknown subcommand "` + cmd + `"`; err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("dispatch(%q) = %v, want an error containing %s", cmd, err, want)
			}
		})
	}
}

// TestRulesListsEveryName pins `campaign rules`: every catalog defense
// and codec is listed by name alone, each on its own line.
func TestRulesListsEveryName(t *testing.T) {
	var out bytes.Buffer
	if err := cmdRules(&out); err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		if !strings.HasPrefix(line, "  ") {
			continue // a section header or the blank line between them
		}
		listed = append(listed, strings.TrimPrefix(line, "  "))
	}
	names := append(experiments.Defenses().Names(), codec.Builtin().Names()...)
	if !slices.Equal(listed, names) {
		t.Errorf("listing %q, want the catalogs' names %q", listed, names)
	}
}

// TestListPinsTheCatalog pins `campaign list`: every experiment and "all",
// in catalog order, with its cell count at standard scale.
func TestListPinsTheCatalog(t *testing.T) {
	var out bytes.Buffer
	if err := cmdList(&out); err != nil {
		t.Fatal(err)
	}
	const want = `table1       360 cells
table2        15 cells
table3        18 cells
fig2           2 cells
fig4         202 cells
fig5          10 cells
fig6          90 cells
adaptive       6 cells
compression   32 cells
hostile       20 cells
serverlearn    8 cells
all          763 cells
`
	if out.String() != want {
		t.Errorf("campaign list printed\n%s\nwant\n%s", out.String(), want)
	}
}

// TestExportTablesMatchEngineReport: the md and tsv exports of a grid that
// run computed are byte-identical to rendering the engine's own Report for
// the same spec — a store round trip changes nothing a table shows. Under
// -name all, every experiment the filter leaves without cells is skipped.
func TestExportTablesMatchEngineReport(t *testing.T) {
	dir := t.TempDir()
	cache := filepath.Join(dir, "cache")
	if err := dispatch("run", []string{"-name", "fig2", "-scale", "bench", "-cache-dir", cache}); err != nil {
		t.Fatal(err)
	}

	x, err := experiments.Experiments().Lookup("fig2")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := experiments.NewEngine(0, nil, nil).Run(t.Context(), x.Spec(experiments.DefaultParams(experiments.ScaleBench)))
	if err != nil {
		t.Fatal(err)
	}
	tables, err := x.Render(rep.Results)
	if err != nil {
		t.Fatal(err)
	}
	var md, tsv bytes.Buffer
	for _, tbl := range tables {
		if err := tbl.Markdown(&md); err != nil {
			t.Fatal(err)
		}
		if err := tbl.TSV(&tsv); err != nil {
			t.Fatal(err)
		}
	}

	for _, tc := range []struct {
		name   string
		args   []string
		format string
		want   []byte
	}{
		{"md", []string{"-name", "fig2"}, "md", md.Bytes()},
		{"tsv", []string{"-name", "fig2"}, "tsv", tsv.Bytes()},
		{"all narrowed to fig2", []string{"-name", "all", "-filter", "probe=signstats"}, "md", md.Bytes()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := filepath.Join(dir, tc.name+"."+tc.format)
			args := append(tc.args, "-scale", "bench", "-cache-dir", cache, "-format", tc.format, "-out", out)
			if err := dispatch("export", args); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) == 0 || !bytes.Equal(got, tc.want) {
				t.Errorf("export differs from the engine's rendering:\n got %q\nwant %q", got, tc.want)
			}
		})
	}
}

// TestExportTablesRefuseMissingCells: unlike the row formats, a table
// export with an uncached cell fails, naming the count and the command
// that computes it.
func TestExportTablesRefuseMissingCells(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir, "fig2", 1)
	err := dispatch("export", []string{"-name", "fig2", "-scale", "bench", "-cache-dir", dir, "-format", "md"})
	for _, want := range []string{"fig2", "1 of 2 cells", "campaign run"} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("export with a missing cell: error %v, want it to name %q", err, want)
		}
	}
}

// TestExportUnknownFormatKeepsOut: an unknown -format is refused before
// -out is opened, so an existing file survives the typo.
func TestExportUnknownFormatKeepsOut(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir, "fig2", 2)
	out := filepath.Join(dir, "keep.csv")
	const keep = "an earlier export\n"
	if err := os.WriteFile(out, []byte(keep), 0o644); err != nil {
		t.Fatal(err)
	}
	err := dispatch("export", []string{"-name", "fig2", "-scale", "bench", "-cache-dir", dir, "-format", "xml", "-out", out})
	if err == nil || !strings.Contains(err.Error(), "xml") {
		t.Errorf("-format xml: error %v, want a refusal naming it", err)
	}
	if got, _ := os.ReadFile(out); string(got) != keep {
		t.Errorf("-out after a refused format holds %q, want %q", got, keep)
	}
}

// TestExportFormatsMatchWriteExport: every -format that is not a rendered
// table is one campaign.WriteExport writes.
func TestExportFormatsMatchWriteExport(t *testing.T) {
	for _, f := range exportFormats {
		if f == "md" || f == "tsv" {
			continue
		}
		if err := campaign.WriteExport(io.Discard, f, nil); err != nil {
			t.Errorf("-format %s: %v", f, err)
		}
	}
}

// TestRefusesBadArguments covers refusals that return before any cell
// trains or any file is written. A positional argument would otherwise end
// flag parsing and leave every later flag at its default: the whole "all"
// grid against ./.campaign-cache.
func TestRefusesBadArguments(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name  string
		cmd   string
		args  []string
		want  []string
		avoid string
	}{
		{name: "status with a campaign argument", cmd: "status", args: []string{"table3", "-scale", "bench", "-cache-dir", dir}, want: []string{`"table3"`, "-name table3"}},
		{name: "export with a campaign argument", cmd: "export", args: []string{"fig2", "-format", "md", "-cache-dir", dir}, want: []string{`"fig2"`, "-name fig2"}},
		{name: "run with a campaign argument", cmd: "run", args: []string{"-cache-dir", dir, "-filter", "no-such-cell", "table3"}, want: []string{`"table3"`, "-name table3"}},
		{name: "run with a stray argument", cmd: "run", args: []string{"-cache-dir", dir, "-filter", "no-such-cell", "extra"}, want: []string{`unexpected argument "extra"`}, avoid: "-name"},
		{name: "unknown -name lists the catalog", cmd: "export", args: []string{"-name", "table9", "-cache-dir", dir}, want: experiments.CampaignNames()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := dispatch(tc.cmd, tc.args)
			if err == nil {
				t.Fatal("accepted")
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("error %q does not name %q", err, w)
				}
			}
			if tc.avoid != "" && strings.Contains(err.Error(), tc.avoid) {
				t.Errorf("error %q names %q", err, tc.avoid)
			}
		})
	}
}

// TestStatusCountsWhatRunServes: status calls a cell cached only when run
// would serve it from the store. A damaged entry (garbage, truncated,
// empty) is pending even after an earlier status saw it whole, and the
// share rounds down, so 100% appears only when nothing is pending.
func TestStatusCountsWhatRunServes(t *testing.T) {
	for name, damage := range map[string]func([]byte) []byte{
		"garbage":   func([]byte) []byte { return []byte("{not json at all") },
		"truncated": func(raw []byte) []byte { return raw[:len(raw)/2] },
		"empty":     func([]byte) []byte { return nil },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			keys := seedStore(t, dir, "fig2", 2)
			if got, want := status(t, dir, "fig2"), "fig2: 2/2 cells cached (0 pending, 100% complete)\n"; got != want {
				t.Fatalf("status of a whole store = %q, want %q", got, want)
			}
			path := filepath.Join(dir, keys[0]+".json")
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, damage(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			if got, want := status(t, dir, "fig2"), "fig2: 1/2 cells cached (1 pending, 50% complete)\n"; got != want {
				t.Errorf("status with a damaged entry = %q, want %q", got, want)
			}
		})
	}
	t.Run("one of 202 pending", func(t *testing.T) {
		dir := t.TempDir()
		seedStore(t, dir, "fig4", 201)
		if got, want := status(t, dir, "fig4"), "fig4: 201/202 cells cached (1 pending, 99% complete)\n"; got != want {
			t.Errorf("status = %q, want %q", got, want)
		}
	})
}

// TestOldStoreStillServes: a store an earlier build filled also holds an
// index.json. Nothing reads it, so even a garbage one leaves every result
// file served by Get and counted by status.
func TestOldStoreStillServes(t *testing.T) {
	dir := t.TempDir()
	keys := seedStore(t, dir, "fig2", 2)
	if err := os.WriteFile(filepath.Join(dir, "index.json"), []byte("{garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	store, err := campaign.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range keys {
		if _, ok := store.Get(key); !ok {
			t.Errorf("old store does not serve %s", key)
		}
	}
	if got, want := status(t, dir, "fig2"), "fig2: 2/2 cells cached (0 pending, 100% complete)\n"; got != want {
		t.Errorf("status = %q, want %q", got, want)
	}
}

// status runs `campaign status` on the named bench-scale grid and returns
// what it prints.
func status(t *testing.T, dir, name string) string {
	t.Helper()
	var out bytes.Buffer
	if err := cmdStatus(&out, []string{"-name", name, "-scale", "bench", "-cache-dir", dir}); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// seedStore puts placeholder results for the first n cells of the named
// bench-scale grid into a store at dir, without training anything, and
// returns their keys.
func seedStore(t *testing.T, dir, name string, n int) []string {
	t.Helper()
	spec, err := resolveSpec(name, "bench", 1, "", "")
	if err != nil {
		t.Fatal(err)
	}
	store, err := campaign.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, n)
	for i, c := range spec.Cells[:n] {
		if keys[i], err = c.Key(); err != nil {
			t.Fatal(err)
		}
		if err := store.Put(&campaign.CellResult{Key: keys[i], Cell: c}); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

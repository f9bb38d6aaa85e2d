// Command campaign reproduces the paper's evaluation: it expands a named
// scenario grid (any of the paper's tables/figures, or "all"), runs the
// cells concurrently with content-addressed result caching, reports cache
// status, and exports cached results — as per-cell or seed-group rows, or
// rendered as the paper's tables.
//
// Usage:
//
//	campaign run    -name all -scale standard -workers 8 -cache-dir .campaign-cache [-filter cifar] [-v]
//	campaign status -name all -scale standard -cache-dir .campaign-cache
//	campaign export -name table1 -scale standard -cache-dir .campaign-cache -format csv -out table1.csv
//	campaign export -name all -scale standard -cache-dir .campaign-cache -format md -out results.md
//	campaign list
//	campaign rules
//
// Runs are resumable: every finished cell is persisted immediately, so an
// interrupted campaign (Ctrl-C) picks up where it left off. A completed
// campaign re-run is pure cache hits — zero recomputation. A grid too big
// for one machine splits by -seeds or -filter: each host runs its share
// into its own -cache-dir, and copying the result files into one directory
// merges them.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"slices"
	"strings"
	"time"

	"github.com/signguard/signguard/internal/campaign"
	"github.com/signguard/signguard/internal/codec"
	"github.com/signguard/signguard/internal/experiments"
	"github.com/signguard/signguard/internal/parallel"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("campaign: ")
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	if err := dispatch(os.Args[1], os.Args[2:]); err != nil {
		log.Fatal(err)
	}
}

// dispatch runs subcommand cmd with its flag arguments.
func dispatch(cmd string, args []string) error {
	switch cmd {
	case "run":
		return cmdRun(args)
	case "status":
		return cmdStatus(os.Stdout, args)
	case "export":
		return cmdExport(args)
	case "list":
		return cmdList(os.Stdout)
	case "rules":
		return cmdRules(os.Stdout)
	case "-h", "--help", "help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown subcommand %q", cmd)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: campaign <run|status|export|list|rules> [flags]

  run     execute a campaign's cells (concurrent, cached, resumable)
  status  report cached vs pending cells for a campaign (reads every cell's entry)
  export  emit cached results as CSV/JSON, per cell or aggregated by seed
          group, or render them as the paper's tables (-format md|tsv)
  list    list the named campaigns and their cell counts
  rules   list the registered defenses and compression codecs

Campaigns cover the paper's tables and figures plus the scenario axes
(adaptive attacks, compression, server learning);
'campaign list' prints them all.

Common flags: -name, -scale, -seed, -seeds, -cache-dir, -filter.
Run 'campaign <subcommand> -h' for the full flag list.
`)
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	var g gridFlags
	g.register(fs)
	workers := fs.Int("workers", parallel.Default(), "concurrent cells (default: all CPUs)")
	verbose := fs.Bool("v", false, "log every finished cell (default: one summary line per 10%)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	if err := parallel.ValidateWorkers(*workers); err != nil {
		return fmt.Errorf("-workers: %w", err)
	}
	spec, err := g.spec()
	if err != nil {
		return err
	}
	store, err := g.store()
	if err != nil {
		return err
	}

	// Ctrl-C cancels the run between cells; finished cells are already
	// persisted, so a re-run resumes from them.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	e := experiments.NewEngine(*workers, store, progressPrinter(*verbose))
	log.Printf("%s: %d cells, cache %s", spec.Name, len(spec.Cells), store.Dir())
	rep, err := e.Run(ctx, spec)
	if err != nil {
		if ctx.Err() != nil {
			return fmt.Errorf("interrupted — completed cells are cached, re-run to resume: %w", err)
		}
		return err
	}
	log.Printf("%s: done in %v (%d executed, %d cache hits)",
		rep.Spec, rep.Elapsed.Round(time.Second), rep.Executed, rep.CacheHits)
	return nil
}

// progressPrinter logs cell completions: every cell when verbose,
// otherwise at ~10% milestones.
func progressPrinter(verbose bool) func(campaign.ProgressEvent) {
	lastMilestone := -1
	return func(ev campaign.ProgressEvent) {
		milestone := ev.Done * 10 / ev.Total
		if !verbose && milestone == lastMilestone && ev.Done != ev.Total {
			return
		}
		lastMilestone = milestone
		state := ev.Duration.Round(time.Millisecond).String()
		if ev.Cached {
			state = "cached"
		}
		line := fmt.Sprintf("%s %d/%d %s (%s)", ev.Spec, ev.Done, ev.Total, ev.Cell.ID(), state)
		if ev.ETA > 0 {
			line += fmt.Sprintf(" eta %v", ev.ETA.Round(time.Second))
		}
		log.Print(line)
	}
}

// cmdStatus prints how many of the grid's cells are cached in the store,
// to w.
func cmdStatus(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	var g gridFlags
	g.register(fs)
	verbose := fs.Bool("v", false, "list every pending cell")
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	spec, err := g.spec()
	if err != nil {
		return err
	}
	store, err := g.store()
	if err != nil {
		return err
	}

	// A cell is cached when run would serve it from the store: the same
	// Get, so a damaged entry counts as pending.
	var cached, pending int
	err = forEachUniqueCell(spec, func(c campaign.Cell, key string) error {
		if _, ok := store.Get(key); ok {
			cached++
		} else {
			pending++
			if *verbose {
				fmt.Fprintf(w, "pending  %s\n", c.ID())
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	// The share rounds down, so 100% means nothing is pending.
	total := cached + pending
	_, err = fmt.Fprintf(w, "%s: %d/%d cells cached (%d pending, %d%% complete)\n",
		spec.Name, cached, total, pending, 100*cached/total)
	return err
}

// parseFlags parses a subcommand's flags and refuses positional arguments:
// flag parsing stops at the first one, so `status table3 -scale bench`
// would otherwise drop every later flag and act on the defaults.
func parseFlags(fs *flag.FlagSet, args []string) error {
	fs.Parse(args)
	if fs.NArg() == 0 {
		return nil
	}
	arg := fs.Arg(0)
	if slices.Contains(experiments.CampaignNames(), arg) {
		return fmt.Errorf("%s: unexpected argument %q (did you mean -name %s?)", fs.Name(), arg, arg)
	}
	return fmt.Errorf("%s: unexpected argument %q (%s takes flags only)", fs.Name(), arg, fs.Name())
}

// exportFormats is -format's vocabulary: campaign.WriteExport's per-cell
// and seed-group formats, then the rendered tables.
var exportFormats = []string{"csv", "json", "group-csv", "group-json", "md", "tsv"}

func cmdExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	var g gridFlags
	g.register(fs)
	format := fs.String("format", "csv", "output format: csv|json (per cell), group-csv|group-json (seed-group mean/std/95% CI) or md|tsv (the experiments' rendered tables)")
	outPath := fs.String("out", "", "output file (default stdout)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if !slices.Contains(exportFormats, *format) {
		return fmt.Errorf("-format: unknown export format %q (want %s)", *format, strings.Join(exportFormats, "|"))
	}

	// spec checks every grid flag whatever the format; the row formats
	// also read their cells from it.
	spec, err := g.spec()
	if err != nil {
		return err
	}
	store, err := g.store()
	if err != nil {
		return err
	}

	// The export is assembled in memory and written only once it is
	// whole, so a failed export never truncates an existing -out file.
	var out bytes.Buffer
	if *format == "md" || *format == "tsv" {
		err = writeTables(&out, *format, &g, store)
	} else {
		err = writeResults(&out, *format, spec, store)
	}
	if err != nil {
		return err
	}
	if *outPath == "" {
		_, err = os.Stdout.Write(out.Bytes())
		return err
	}
	return os.WriteFile(*outPath, out.Bytes(), 0o644)
}

// writeResults writes the spec's cached cells, one row per unique cell, in
// a campaign.WriteExport format. Missing cells are skipped with a warning.
func writeResults(w io.Writer, format string, spec campaign.Spec, store *campaign.Store) error {
	results, missing, err := cachedResults(spec, store)
	if err != nil {
		return err
	}
	if missing > 0 {
		log.Printf("%d cells not yet cached — run 'campaign run' to compute them", missing)
	}
	if len(results) == 0 {
		return fmt.Errorf("no cached results for campaign %s in %s", spec.Name, store.Dir())
	}
	return campaign.WriteExport(w, format, results)
}

// cachedResults returns the store's results for the spec's unique cells,
// in spec order, and how many of those cells it has none for.
func cachedResults(spec campaign.Spec, store *campaign.Store) ([]*campaign.CellResult, int, error) {
	var results []*campaign.CellResult
	var missing int
	err := forEachUniqueCell(spec, func(_ campaign.Cell, key string) error {
		if res, ok := store.Get(key); ok {
			results = append(results, res)
		} else {
			missing++
		}
		return nil
	})
	return results, missing, err
}

// writeTables renders, from the store, the tables of every experiment -name
// selects ("all": the whole catalog, in catalog order) as markdown or TSV.
// Each experiment's grid is narrowed as run narrows it, so its keys are the
// ones run stored, and the experiment renders over those results, looked
// up by cell key. An experiment the flags leave without cells is skipped,
// and so is a table; a table the flags select in part fails the export,
// and unlike the row formats, so does a missing cell. A table shows one
// seed per cell, so a -seeds list of more than one is refused up front.
func writeTables(w io.Writer, format string, g *gridFlags, store *campaign.Store) error {
	p, err := g.params()
	if err != nil {
		return err
	}
	seeds, err := parseSeeds(g.seeds)
	if err != nil {
		return err
	}
	switch {
	case len(seeds) > 1:
		return fmt.Errorf("-format %s renders one seed per cell, and -seeds %s replicates each cell %d times; export seed replicates with -format group-csv (mean ± 95%% CI per seed group)",
			format, g.seeds, len(seeds))
	case len(seeds) == 1:
		p.Seed = seeds[0]
	}
	xs := experiments.Experiments().Values()
	if g.name != "all" {
		x, err := experiments.Experiments().Lookup(g.name)
		if err != nil {
			return err
		}
		xs = []experiments.Experiment{x}
	}
	for _, x := range xs {
		spec, err := g.narrow(x.Spec(p))
		if err != nil {
			return err
		}
		if len(spec.Cells) == 0 {
			continue
		}
		results, missing, err := cachedResults(spec, store)
		if err != nil {
			return err
		}
		if missing > 0 {
			return fmt.Errorf("%s: %d of %d cells not cached in %s — run 'campaign run' with the same flags first",
				x.Name, missing, len(results)+missing, store.Dir())
		}
		tables, err := x.Render(p, results)
		if err != nil {
			return fmt.Errorf("%s: %w", x.Name, err)
		}
		for _, t := range tables {
			if format == "tsv" {
				err = t.TSV(w)
			} else {
				err = t.Markdown(w)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// cmdList prints every named campaign with its cell count at standard
// scale.
func cmdList(w io.Writer) error {
	p := experiments.DefaultParams(experiments.ScaleStandard)
	for _, name := range experiments.CampaignNames() {
		spec, err := experiments.CampaignByName(name, p)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-11s %4d cells\n", name, len(spec.Cells))
	}
	return nil
}

// cmdRules prints the defense and codec registries — the one listing
// surface for both pluggable-stage catalogs.
func cmdRules(w io.Writer) error {
	defs := experiments.Defenses().Names()
	fmt.Fprintf(w, "defenses (%d):\n", len(defs))
	for _, name := range defs {
		fmt.Fprintf(w, "  %s\n", name)
	}
	codecs := codec.Builtin().Names()
	fmt.Fprintf(w, "\ncodecs (%d):\n", len(codecs))
	for _, name := range codecs {
		fmt.Fprintf(w, "  %s\n", name)
	}
	return nil
}

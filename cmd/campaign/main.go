// Command campaign drives the experiment-campaign engine directly: it
// expands a named scenario grid (any of the paper's tables/figures, or
// "all"), runs the cells concurrently with content-addressed result
// caching, reports cache status, and exports cached results.
//
// Usage:
//
//	campaign run    -name all -scale standard -workers 8 -cache-dir .campaign-cache [-filter cifar] [-v]
//	campaign status -name all -scale standard -cache-dir .campaign-cache
//	campaign export -name table1 -scale standard -cache-dir .campaign-cache -format csv -out table1.csv
//	campaign list
//	campaign rules
//
// Runs are resumable: every finished cell is persisted immediately, so an
// interrupted campaign (Ctrl-C) picks up where it left off. A completed
// campaign re-run is pure cache hits — zero recomputation. A grid too big
// for one machine splits by -seeds or -filter: each host runs its share
// into its own -cache-dir, and copying the result files into one directory
// merges them (the store's index rebuilds itself).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
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
		return cmdStatus(args)
	case "export":
		return cmdExport(args)
	case "list":
		return cmdList()
	case "rules":
		return cmdRules()
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
  status  report cached vs pending cells for a campaign (index-backed, O(1) per cell)
  export  emit cached results as CSV/JSON, per cell or aggregated by seed group
  list    list the named campaigns and their cell counts
  rules   list the registered defenses and compression codecs with their
          declared hyperparameters

Campaigns cover the paper's tables and figures plus the scenario axes
(client subsampling, defense hyperparameter sweeps, adaptive attacks);
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
	fs.Parse(args)

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

	e := &campaign.Engine{
		Registry: experiments.Registry(),
		Store:    store,
		Workers:  *workers,
		Progress: progressPrinter(*verbose),
	}
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

func cmdStatus(args []string) error {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	var g gridFlags
	g.register(fs)
	verbose := fs.Bool("v", false, "list every pending cell")
	fs.Parse(args)

	spec, err := g.spec()
	if err != nil {
		return err
	}
	store, err := g.store()
	if err != nil {
		return err
	}

	// Contains answers from the store's index: one index read for the
	// whole grid instead of one file probe per cell.
	var cached, pending int
	err = forEachUniqueCell(spec, func(c campaign.Cell, key string) error {
		if store.Contains(key) {
			cached++
		} else {
			pending++
			if *verbose {
				fmt.Printf("pending  %s\n", c.ID())
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	total := cached + pending
	fmt.Printf("%s: %d/%d cells cached (%d pending, %.0f%% complete)\n",
		spec.Name, cached, total, pending, 100*float64(cached)/float64(total))
	return nil
}

func cmdExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	var g gridFlags
	g.register(fs)
	format := fs.String("format", "csv", "output format: csv|json (per cell) or group-csv|group-json (seed-group mean/std/95% CI)")
	outPath := fs.String("out", "", "output file (default stdout)")
	fs.Parse(args)

	spec, err := g.spec()
	if err != nil {
		return err
	}
	store, err := g.store()
	if err != nil {
		return err
	}

	var results []*campaign.CellResult
	var missing int
	err = forEachUniqueCell(spec, func(_ campaign.Cell, key string) error {
		res, ok := store.Get(key)
		if !ok {
			missing++
			return nil
		}
		results = append(results, res)
		return nil
	})
	if err != nil {
		return err
	}
	if missing > 0 {
		log.Printf("%d cells not yet cached — run 'campaign run' to compute them", missing)
	}
	if len(results) == 0 {
		return fmt.Errorf("no cached results for campaign %s in %s", spec.Name, store.Dir())
	}

	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	return campaign.WriteExport(out, *format, results)
}

func cmdList() error {
	p := experiments.DefaultParams(experiments.ScaleStandard)
	for _, name := range experiments.CampaignNames() {
		spec, err := experiments.CampaignByName(name, p)
		if err != nil {
			return err
		}
		fmt.Printf("%-11s %4d cells\n", name, len(spec.Cells))
	}
	return nil
}

// cmdRules prints the defense and codec registries — the one listing
// surface for both pluggable-stage catalogs, with the hyperparameter
// names each constructor accepts (usable in RuleHyper / -codec-hyper).
func cmdRules() error {
	defs := experiments.Defenses().Values()
	fmt.Printf("defenses (%d):\n", len(defs))
	for _, s := range defs {
		printRule(s.Name, s.Hyper)
	}
	codecs := codec.Builtin().Values()
	fmt.Printf("\ncodecs (%d):\n", len(codecs))
	for _, s := range codecs {
		printRule(s.Name, s.Hyper)
	}
	return nil
}

func printRule(name string, hyper []string) {
	if len(hyper) == 0 {
		fmt.Printf("  %s\n", name)
		return
	}
	fmt.Printf("  %-24s hyper: %s\n", name, strings.Join(hyper, ", "))
}

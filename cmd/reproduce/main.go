// Command reproduce regenerates the tables and figures of the SignGuard
// paper's evaluation section on the synthetic substrate. Experiments run
// through the campaign engine: cells execute concurrently across -workers,
// and -cache-dir memoizes per-cell results so interrupted or repeated runs
// resume instead of recomputing.
//
// Usage:
//
//	reproduce -exp table1 [-dataset mnist] [-scale bench|standard|full] [-format md|tsv] [-v]
//	reproduce -exp all -scale standard -workers 8 -cache-dir .campaign-cache -out results.md
//
// -exp takes any name `campaign list` prints: the paper's tables and
// figures, the post-paper scenario axes, and all (every experiment, in
// that order). -codec stamps a gradient-compression codec onto every cell
// of whichever experiment runs (the codec is cell identity, so compressed
// reruns cache separately).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"github.com/signguard/signguard/internal/campaign"
	"github.com/signguard/signguard/internal/cliutil"
	"github.com/signguard/signguard/internal/experiments"
	"github.com/signguard/signguard/internal/parallel"
)

var (
	expFlag     = flag.String("exp", "table1", "experiment id: "+expNames())
	datasetFlag = flag.String("dataset", "", "table1 and all only: restrict Table I to one dataset (mnist|fashion|cifar|agnews)")
	scaleFlag   = flag.String("scale", "bench", "scale preset: bench|standard|full")
	formatFlag  = flag.String("format", "md", "output format: md|tsv")
	outFlag     = flag.String("out", "", "output file (default stdout)")
	seedFlag    = flag.Int64("seed", 1, "experiment seed")
	workersFlag = flag.Int("workers", parallel.Default(), "concurrent experiment cells (default: all CPUs)")
	codecFlag   = flag.String("codec", "", "gradient-compression codec stamped onto every cell (identity|topk|qsgd|signsgd; empty = the experiment's own codec axis)")
	hyperFlag   = flag.String("codec-hyper", "", "codec hyperparameters as key=value[,key=value], e.g. k=64 (requires -codec)")
	cacheFlag   = flag.String("cache-dir", "", "cell result cache directory (empty = no cache)")
	verbose     = flag.Bool("v", false, "log per-cell progress to stderr")
)

func main() {
	flag.Parse()

	if err := run(*expFlag, *datasetFlag, *scaleFlag, *formatFlag, *outFlag, *seedFlag,
		*workersFlag, *codecFlag, *hyperFlag, *cacheFlag, *verbose); err != nil {
		log.Fatalf("reproduce: %v", err)
	}
}

func run(exp, dataset, scaleName, format, outPath string, seed int64, workers int, codecName, codecHyper, cacheDir string, verbose bool) error {
	if err := parallel.ValidateWorkers(workers); err != nil {
		return fmt.Errorf("-workers: %w", err)
	}
	hyper, err := cliutil.CodecHyper(codecName, codecHyper)
	if err != nil {
		return err
	}
	xs, err := selectExperiments(exp, dataset)
	if err != nil {
		return err
	}
	scale, err := experiments.ParseScale(scaleName)
	if err != nil {
		return err
	}
	p := experiments.DefaultParams(scale)
	p.Seed = seed

	var logf experiments.Reporter
	if verbose {
		logf = func(format string, args ...any) { log.Printf(format, args...) }
	}
	var store *campaign.Store
	if cacheDir != "" {
		store, err = campaign.OpenStore(cacheDir)
		if err != nil {
			return err
		}
	}
	engine := experiments.NewEngine(workers, store, logf)
	engine.Codec = codecName
	engine.CodecHyper = hyper

	var out io.Writer = os.Stdout
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return fmt.Errorf("creating %s: %w", outPath, err)
		}
		defer f.Close()
		out = f
	}

	start := time.Now()
	defer func() {
		if verbose {
			log.Printf("reproduce: %s done in %v", exp, time.Since(start).Round(time.Second))
		}
	}()

	for _, x := range xs {
		spec := x.Spec(p)
		if x.Name == "table1" && dataset != "" {
			spec = experiments.OnlyDataset(spec, dataset)
		}
		tables, err := x.Run(context.Background(), engine, spec)
		if err != nil {
			return err
		}
		for _, t := range tables {
			if format == "tsv" {
				err = t.TSV(out)
			} else {
				err = t.Markdown(out)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// selectExperiments resolves -exp ("all" = the whole catalog, in order) and
// checks -dataset, which only restricts Table I.
func selectExperiments(exp, dataset string) ([]experiments.Experiment, error) {
	cat := experiments.Experiments()
	var xs []experiments.Experiment
	if exp == "all" {
		xs = cat.Values()
	} else {
		x, err := cat.Lookup(exp)
		if err != nil {
			return nil, fmt.Errorf("unknown experiment %q (want %s)", exp, expNames())
		}
		xs = []experiments.Experiment{x}
	}
	if dataset != "" {
		if exp != "table1" && exp != "all" {
			return nil, fmt.Errorf("-dataset restricts Table I only: use it with -exp table1 or -exp all, not -exp %s", exp)
		}
		if _, err := experiments.DatasetByKey(dataset); err != nil {
			return nil, err
		}
	}
	return xs, nil
}

// expNames is the -exp vocabulary: every catalog entry, then all.
func expNames() string {
	return strings.Join(experiments.CampaignNames(), "|")
}

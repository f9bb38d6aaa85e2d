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
// Experiments: table1, table2, table3, fig2, fig4, fig5, fig6, the
// post-paper scenario axes (subsample, coordfrac, adaptive, compression,
// hostile, serverlearn), and all. -codec stamps a gradient-compression
// codec onto every cell of whichever experiment runs (the codec is cell
// identity, so compressed reruns cache separately).
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"github.com/signguard/signguard/internal/campaign"
	"github.com/signguard/signguard/internal/cliutil"
	"github.com/signguard/signguard/internal/experiments"
	"github.com/signguard/signguard/internal/parallel"
)

func main() {
	var (
		expFlag     = flag.String("exp", "table1", "experiment id: table1|table2|table3|fig2|fig4|fig5|fig6|subsample|coordfrac|adaptive|compression|hostile|serverlearn|all")
		datasetFlag = flag.String("dataset", "", "table1 only: restrict to one dataset (mnist|fashion|cifar|agnews)")
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
	hyper, err := cliutil.ParseHyper("-codec-hyper", codecHyper)
	if err != nil {
		return err
	}
	if codecName == "" && hyper != nil {
		return fmt.Errorf("-codec-hyper requires -codec")
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

	emit := func(tables ...*experiments.Table) error {
		for _, t := range tables {
			var err error
			if format == "tsv" {
				err = t.TSV(out)
			} else {
				err = t.Markdown(out)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}

	start := time.Now()
	defer func() {
		if verbose {
			log.Printf("reproduce: %s done in %v", exp, time.Since(start).Round(time.Second))
		}
	}()

	runTable1 := func() error {
		specs := experiments.Datasets()
		if dataset != "" {
			ds, err := experiments.DatasetByKey(dataset)
			if err != nil {
				return err
			}
			specs = []experiments.DatasetSpec{ds}
		}
		for _, ds := range specs {
			t, err := experiments.Table1(engine, ds, p)
			if err != nil {
				return err
			}
			if err := emit(t); err != nil {
				return err
			}
		}
		return nil
	}
	runTable2 := func() error {
		t, err := experiments.Table2(engine, p)
		if err != nil {
			return err
		}
		return emit(t)
	}
	runTable3 := func() error {
		t, err := experiments.Table3(engine, p)
		if err != nil {
			return err
		}
		return emit(t)
	}
	runFig2 := func() error {
		_, tables, err := experiments.Fig2(engine, p, experiments.Fig2SampleEvery(p))
		if err != nil {
			return err
		}
		return emit(tables...)
	}
	runFig4 := func() error {
		tables, err := experiments.Fig4(engine, p)
		if err != nil {
			return err
		}
		return emit(tables...)
	}
	runFig5 := func() error {
		tables, err := experiments.Fig5(engine, p)
		if err != nil {
			return err
		}
		return emit(tables...)
	}
	runFig6 := func() error {
		tables, err := experiments.Fig6(engine, p)
		if err != nil {
			return err
		}
		return emit(tables...)
	}
	runSubsample := func() error {
		t, err := experiments.Subsample(engine, p)
		if err != nil {
			return err
		}
		return emit(t)
	}
	runCoordFrac := func() error {
		t, err := experiments.CoordFrac(engine, p)
		if err != nil {
			return err
		}
		return emit(t)
	}
	runAdaptive := func() error {
		t, err := experiments.Adaptive(engine, p)
		if err != nil {
			return err
		}
		return emit(t)
	}
	runCompression := func() error {
		t, err := experiments.Compression(engine, p)
		if err != nil {
			return err
		}
		return emit(t)
	}
	runHostile := func() error {
		t, err := experiments.Hostile(engine, p)
		if err != nil {
			return err
		}
		return emit(t)
	}
	runServerLearn := func() error {
		t, err := experiments.ServerLearn(engine, p)
		if err != nil {
			return err
		}
		return emit(t)
	}

	switch exp {
	case "table1":
		return runTable1()
	case "table2":
		return runTable2()
	case "table3":
		return runTable3()
	case "fig2":
		return runFig2()
	case "fig4":
		return runFig4()
	case "fig5":
		return runFig5()
	case "fig6":
		return runFig6()
	case "subsample":
		return runSubsample()
	case "coordfrac":
		return runCoordFrac()
	case "adaptive":
		return runAdaptive()
	case "compression":
		return runCompression()
	case "hostile":
		return runHostile()
	case "serverlearn":
		return runServerLearn()
	case "all":
		for _, f := range []func() error{runFig2, runTable1, runTable2, runFig4, runFig5, runFig6, runTable3,
			runSubsample, runCoordFrac, runAdaptive, runCompression, runHostile, runServerLearn} {
			if err := f(); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
}

package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"time"

	"github.com/signguard/signguard/internal/campaign"
	"github.com/signguard/signguard/internal/campaign/dist"
	"github.com/signguard/signguard/internal/cliutil"
	"github.com/signguard/signguard/internal/experiments"
	"github.com/signguard/signguard/internal/parallel"
)

// cmdServe runs the distributed coordinator: it owns the resolved grid and
// the result store, and hands cells out to 'campaign work' processes over
// the HTTP work-stealing protocol. It exits once every cell is stored.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var g gridFlags
	g.register(fs)
	addr := fs.String("addr", "127.0.0.1:9090", "HTTP listen address for workers")
	ttl := fs.Duration("ttl", dist.DefaultTTL, "lease lifetime; a worker silent this long has its cells requeued")
	linger := fs.Duration("linger", 3*time.Second, "how long to keep serving after completion so idle workers observe Done")
	fs.Parse(args)

	spec, err := g.spec()
	if err != nil {
		return err
	}
	// Fail bad grids at serve time, not on the first worker's join.
	if err := experiments.Registry().Validate(spec); err != nil {
		return fmt.Errorf("campaign %s: %w", spec.Name, err)
	}
	store, err := g.store()
	if err != nil {
		return err
	}

	coord, err := dist.New(dist.Config{
		Spec: spec, Store: store, TTL: *ttl, Logf: log.Printf,
	})
	if err != nil {
		return err
	}
	if coord.Done() {
		log.Printf("%s: every cell is already cached in %s — nothing to serve", spec.Name, store.Dir())
		return nil
	}

	// Bind before waiting so an unusable -addr (port taken, privileged
	// port) fails the command immediately instead of blocking in Wait with
	// the listen error sitting unread.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listen %s: %w", *addr, err)
	}
	srv := &http.Server{Handler: coord.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	log.Printf("%s: coordinator on %s (join with: campaign work -coordinator %s)",
		spec.Name, ln.Addr(), joinHint(ln.Addr()))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	waitErr := coord.Wait(ctx)

	// Linger before shutting down so workers idling in their poll loop get
	// one more lease response — the one carrying Done — instead of a
	// connection error against a vanished coordinator.
	if waitErr == nil && *linger > 0 {
		select {
		case <-time.After(*linger):
		case <-ctx.Done():
		}
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = srv.Shutdown(shutCtx)
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if waitErr != nil {
		st := coord.Status()
		return fmt.Errorf("interrupted with %d/%d cells stored — completed cells are cached, re-serve to resume: %w",
			st.Completed+st.CacheHits, st.Total, waitErr)
	}
	st := coord.Status()
	log.Printf("%s: done (%d executed by workers, %d cache hits, %d duplicate uploads)",
		spec.Name, st.Completed, st.CacheHits, st.Duplicates)
	return nil
}

// joinHint renders the worker-facing URL of the bound listener. Wildcard
// listens (-addr :9090) substitute this host's name: "[::]" is not dialable
// from another machine, and the hint exists to be copy-pasted there.
func joinHint(addr net.Addr) string {
	host, port, err := net.SplitHostPort(addr.String())
	if err != nil {
		return "http://" + addr.String()
	}
	if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
		host = "localhost"
		if h, err := os.Hostname(); err == nil {
			host = h
		}
	}
	return "http://" + net.JoinHostPort(host, port)
}

// codecPolicy builds the -codec worker guard: a CheckSpec hook refusing
// grids whose cells use any compression codec other than pin. The empty
// spelling and "identity" are one codec (they hash identically), so a
// worker pinned to identity accepts uncompressed grids and vice versa.
func codecPolicy(pin string) func(campaign.Spec) error {
	if pin == "" {
		return nil
	}
	norm := func(name string) string {
		if name == "" {
			return campaign.CodecIdentity
		}
		return name
	}
	pin = norm(pin)
	return func(spec campaign.Spec) error {
		for _, c := range spec.Cells {
			if got := norm(c.Codec); got != pin {
				return fmt.Errorf("cell %s uses codec %s, this worker is pinned to -codec %s", c.ID(), got, pin)
			}
		}
		return nil
	}
}

// cmdWork joins a coordinator and executes leased cells until the campaign
// completes. Any number of work processes, on any hosts that can reach the
// coordinator, share one grid and one result store.
func cmdWork(args []string) error {
	fs := flag.NewFlagSet("work", flag.ExitOnError)
	coordURL := fs.String("coordinator", "http://127.0.0.1:9090", "coordinator base URL")
	id := fs.String("id", "", "worker name in leases/heartbeats (default: hostname-pid)")
	workers := fs.Int("workers", parallel.Default(), "concurrent cells on this worker (default: all CPUs)")
	batch := fs.Int("batch", 1, "cells leased per request and slot")
	poll := fs.Duration("poll", 2*time.Second, "idle wait when every pending cell is leased elsewhere")
	codecPin := fs.String("codec", "", "refuse grids whose cells use any compression codec but this one (operator policy; empty = accept all)")
	verbose := fs.Bool("v", false, "log every finished cell")
	fs.Parse(args)

	if err := parallel.ValidateWorkers(*workers); err != nil {
		return fmt.Errorf("-workers: %w", err)
	}
	if err := cliutil.PositiveInt("-batch", *batch); err != nil {
		return err
	}

	// Split the CPUs between cell slots and each cell's in-simulation
	// parallelism, the same division of labor the local engine applies.
	simWorkers := parallel.Default() / *workers
	if simWorkers < 1 {
		simWorkers = 1
	}
	logf := log.Printf
	if !*verbose {
		logf = nil
	}
	w := &dist.Worker{
		URL:       *coordURL,
		ID:        *id,
		Runner:    &campaign.Runner{Registry: experiments.Registry(), SimWorkers: simWorkers},
		Registry:  experiments.Registry(),
		CheckSpec: codecPolicy(*codecPin),
		Slots:     *workers,
		Batch:     *batch,
		Poll:      *poll,
		Logf:      logf,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	stats, err := w.Run(ctx)
	if err != nil {
		return fmt.Errorf("worker exiting after %d cells (leases held here will expire and requeue): %w",
			stats.Executed, err)
	}
	log.Printf("worker done in %v: %d cells executed (%d duplicates)",
		stats.Elapsed.Round(time.Second), stats.Executed, stats.Duplicates)
	return nil
}

// Package loadtest drives the asynchronous serving layer (internal/asyncfl
// behind the internal/transport HTTP protocol) with large fleets of
// goroutine-cheap simulated clients over real HTTP sockets, and reports
// the serving metrics that matter at scale: aggregation rounds/s, accepted
// updates/s, p50/p99 update-ingest latency, mean buffer occupancy, and
// model quality under a configurable Byzantine fraction and client churn.
//
// Clients train a synthetic strongly-convex task — the gradient at params
// p is p minus a hidden optimum plus per-client noise — so a 100k-client
// run costs microseconds of compute per update and the final RMS distance
// to the optimum is an exact model-quality readout: honest traffic drives
// it toward 0, unfiltered Byzantine traffic (sign-flipped, scaled
// gradients) drives it away, and a defense in front of the buffer keeps
// it shrinking. Client sessions are state machines driven by a bounded
// worker pool, so 100k+ sessions cost a struct each, not a stack each,
// and socket reuse comes from one shared pooled HTTP client.
package loadtest

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/signguard/signguard/internal/aggregate"
	"github.com/signguard/signguard/internal/asyncfl"
	"github.com/signguard/signguard/internal/attack"
	"github.com/signguard/signguard/internal/codec"
	"github.com/signguard/signguard/internal/tensor"
	"github.com/signguard/signguard/internal/transport"
)

// Config describes one load run.
type Config struct {
	// Clients is the number of simulated client sessions (required).
	Clients int
	// UpdatesPerClient is how many updates each honest client submits
	// (default 2; churned clients always stop after 1).
	UpdatesPerClient int
	// Concurrency bounds the driver worker pool — how many client
	// sessions are in flight at once (default 256).
	Concurrency int
	// Dim is the synthetic model dimensionality (default 64).
	Dim int
	// K is the aggregation buffer size (default 32); Alpha the staleness
	// exponent (default 0.5).
	K     int
	Alpha float64
	// Rule, when non-nil, filters each buffer before the merge.
	Rule aggregate.Rule
	// Codec, when non-nil, compresses every client's submissions through
	// this wire format (each session encodes with its own RNG stream, so
	// stochastic codecs stay per-client deterministic).
	Codec codec.Codec
	// LR is the server learning rate (default 0.05).
	LR float64
	// ByzFraction of clients submit the attack catalog's Reverse at scale
	// 5 — sign-flipped, 5x-scaled gradients — crafted via attack.Local.
	ByzFraction float64
	// NonFiniteFraction of clients are hostile in the non-finite sense:
	// every submission is a qsgd payload whose finite Scale amplifies to
	// +Inf on decode — the NaN-injection attack in the shape the wire
	// layer itself must catch (a literal NaN in a dense body is the
	// aggregator screen's to refuse). The server must refuse each one
	// with HTTP 400 and count it in Stats.NonFiniteRejects.
	NonFiniteFraction float64
	// ChurnFraction of clients vanish after one update without ever
	// heartbeating again — their sessions expire and queued updates are
	// purged once SessionTTL passes.
	ChurnFraction float64
	// SessionTTL is the liveness lease lifetime (default 30s).
	SessionTTL time.Duration
	// Seed drives the optimum, the per-client noise, and nothing else.
	Seed int64
	// Logf, when non-nil, receives progress lines. The report is Run's
	// return value, not a log line: the caller decides where it goes.
	Logf func(format string, args ...any)

	// now is the aggregator's liveness clock (nil = time.Now). Tests set
	// it so session expiry depends on the message count, not on how fast
	// the machine serves the run.
	now func() time.Time
}

func (c *Config) fill() error {
	if c.Clients < 1 {
		return fmt.Errorf("loadtest: %d clients invalid", c.Clients)
	}
	if c.ByzFraction < 0 || c.ByzFraction > 1 {
		return fmt.Errorf("loadtest: byzantine fraction %v invalid", c.ByzFraction)
	}
	if c.ChurnFraction < 0 || c.ChurnFraction > 1 {
		return fmt.Errorf("loadtest: churn fraction %v invalid", c.ChurnFraction)
	}
	if c.NonFiniteFraction < 0 || c.NonFiniteFraction > 1 {
		return fmt.Errorf("loadtest: non-finite fraction %v invalid", c.NonFiniteFraction)
	}
	if c.UpdatesPerClient == 0 {
		c.UpdatesPerClient = 2
	}
	if c.UpdatesPerClient < 1 {
		return fmt.Errorf("loadtest: %d updates per client invalid", c.UpdatesPerClient)
	}
	if c.Concurrency == 0 {
		c.Concurrency = 256
	}
	if c.Concurrency < 1 {
		return fmt.Errorf("loadtest: concurrency %d invalid", c.Concurrency)
	}
	if c.Dim == 0 {
		c.Dim = 64
	}
	if c.Dim < 0 {
		return fmt.Errorf("loadtest: dimension %d invalid", c.Dim)
	}
	if c.K == 0 {
		c.K = 32
	}
	if c.Alpha == 0 {
		c.Alpha = 0.5
	}
	if c.LR == 0 {
		c.LR = 0.05
	}
	if c.SessionTTL == 0 {
		c.SessionTTL = 30 * time.Second
	}
	return nil
}

// Report is the outcome of one load run.
type Report struct {
	// Fleet composition.
	Clients   int
	Byzantine int
	Churned   int
	Hostile   int
	// Ingest volume: accepted updates, server-side drops/rejects/purges.
	Updates int64
	Drops   int64
	Rejects int64
	Purged  int64
	Expired int64
	// NonFiniteRejects counts hostile non-finite submissions the server
	// refused (Stats.NonFiniteRejects: wire-level decode refusals plus
	// buffer-screen rejections).
	NonFiniteRejects int64
	// Aggregation progress.
	Steps    int64
	Duration time.Duration
	// RoundsPerSec is aggregation steps per second; IngestPerSec accepted
	// updates per second.
	RoundsPerSec float64
	IngestPerSec float64
	// IngestP50 / IngestP99 are client-observed submit round-trip
	// latencies.
	IngestP50 time.Duration
	IngestP99 time.Duration
	// MeanBufferOccupancy is the buffer population averaged over arrivals.
	MeanBufferOccupancy float64
	// IngestBytes is the total wire size of accepted updates;
	// BytesPerUpdate the mean. Under a lossy codec both drop well below
	// the dense-float64 volume of the same fleet.
	IngestBytes    int64
	BytesPerUpdate float64
	// InitialError / FinalError are RMS distances from the global model to
	// the synthetic optimum before and after the run — the model-quality
	// readout. ErrorReduction is 1 - Final/Initial (1 = fully converged,
	// <= 0 = the attack won).
	InitialError   float64
	FinalError     float64
	ErrorReduction float64
}

// String renders the report as the flserver -loadtest summary block.
func (r *Report) String() string {
	return fmt.Sprintf(`loadtest: %d clients (%d byzantine, %d churned, %d hostile), %d updates accepted in %v
  throughput   %.1f rounds/s (%d aggregation steps), %.0f updates/s ingested
  ingest p50   %v
  ingest p99   %v
  ingest bytes %d (%.0f B/update)
  buffer       mean occupancy %.1f, drops %d, rejects %d, purged %d (expired sessions %d)
  hostile      non-finite submissions refused %d
  model error  %.4f -> %.4f (reduction %.1f%%)`,
		r.Clients, r.Byzantine, r.Churned, r.Hostile, r.Updates, r.Duration.Round(time.Millisecond),
		r.RoundsPerSec, r.Steps, r.IngestPerSec,
		r.IngestP50, r.IngestP99,
		r.IngestBytes, r.BytesPerUpdate,
		r.MeanBufferOccupancy, r.Drops, r.Rejects, r.Purged, r.Expired,
		r.NonFiniteRejects,
		r.InitialError, r.FinalError, 100*r.ErrorReduction)
}

// spread reports whether index i belongs to the evenly-spread subset of
// size count out of n (Bresenham spreading, so e.g. Byzantine clients are
// interleaved with honest ones rather than clustered at the front of the
// fleet).
func spread(i, count, n int) bool {
	if count <= 0 {
		return false
	}
	return (int64(i)*int64(count))%int64(n) < int64(count)
}

// roles assigns client i its fleet role. Roles are mutually exclusive with
// Byzantine taking precedence over churn over hostile, and each uses a
// shifted Bresenham spread so the categories interleave across the fleet.
func roles(cfg *Config, i int) (isByz, isChurn, isHostile bool) {
	n := cfg.Clients
	isByz = spread(i, int(cfg.ByzFraction*float64(n)), n)
	isChurn = !isByz && spread(i+1, int(cfg.ChurnFraction*float64(n)), n)
	isHostile = !isByz && !isChurn && spread(i+2, int(cfg.NonFiniteFraction*float64(n)), n)
	return
}

// rmsError is the root-mean-square distance between params and optimum.
func rmsError(params, optimum []float64) float64 {
	var sum float64
	for i := range params {
		d := params[i] - optimum[i]
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(params)))
}

// Run executes one load run: it starts a real HTTP server over a fresh
// aggregator, drives the whole fleet through it, and reports.
func Run(cfg Config) (*Report, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	// The Byzantine fleet's attack: the catalog's Reverse at scale 5. It
	// is stateless, so one instance serves every Byzantine client.
	spec, err := attack.Builtin().Lookup("Reverse")
	if err != nil {
		return nil, err
	}
	byz, err := spec.New(5, 0)
	if err != nil {
		return nil, err
	}
	rng := tensor.NewRNG(cfg.Seed)
	optimum := tensor.RandNormal(rng, cfg.Dim, 0, 1)
	initial := make([]float64, cfg.Dim) // zeros: RMS error = |optimum| RMS

	agg, err := asyncfl.New(asyncfl.Config{
		InitialParams: initial,
		K:             cfg.K,
		Alpha:         cfg.Alpha,
		Rule:          cfg.Rule,
		LR:            cfg.LR,
		SessionTTL:    cfg.SessionTTL,
		Now:           cfg.now,
	})
	if err != nil {
		return nil, err
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("loadtest: listen: %w", err)
	}
	srv := &http.Server{Handler: transport.NewAsyncHandler(agg)}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	defer srv.Close()

	// One pooled HTTP client for the whole fleet: sessions are cheap
	// structs, sockets are reused, and in-flight requests are bounded by
	// the worker pool — 100k sessions never means 100k file descriptors.
	shared := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        cfg.Concurrency * 2,
		MaxIdleConnsPerHost: cfg.Concurrency * 2,
	}}
	base := "http://" + ln.Addr().String()

	byzCount, churnCount, hostileCount := 0, 0, 0
	lats := make([][]time.Duration, cfg.Concurrency)
	var firstErr atomic.Value
	var accepted atomic.Int64

	logf("loadtest: driving %d clients (%d workers) at %s", cfg.Clients, cfg.Concurrency, base)
	start := time.Now()
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range jobs {
				if err := runClient(&cfg, base, shared, optimum, byz, i, &lats[w], &accepted); err != nil {
					firstErr.CompareAndSwap(nil, err)
				}
			}
		}(w)
	}
	for i := 0; i < cfg.Clients; i++ {
		switch isByz, isChurn, isHostile := roles(&cfg, i); {
		case isByz:
			byzCount++
		case isChurn:
			churnCount++
		case isHostile:
			hostileCount++
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	duration := time.Since(start)
	if err, ok := firstErr.Load().(error); ok && err != nil {
		return nil, err
	}
	if err := srv.Close(); err != nil {
		return nil, err
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return nil, err
	}

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p float64) time.Duration {
		if len(all) == 0 {
			return 0
		}
		idx := int(p * float64(len(all)-1))
		return all[idx]
	}

	st := agg.Stats()
	_, params, _ := agg.Model()
	rep := &Report{
		Clients:             cfg.Clients,
		Byzantine:           byzCount,
		Churned:             churnCount,
		Hostile:             hostileCount,
		Updates:             accepted.Load(),
		Drops:               st.Drops,
		Rejects:             st.Rejects,
		NonFiniteRejects:    st.NonFiniteRejects,
		Purged:              st.PurgedUpdates,
		Expired:             st.Expired,
		Steps:               st.Steps,
		Duration:            duration,
		RoundsPerSec:        float64(st.Steps) / duration.Seconds(),
		IngestPerSec:        float64(accepted.Load()) / duration.Seconds(),
		IngestP50:           pct(0.50),
		IngestP99:           pct(0.99),
		MeanBufferOccupancy: st.MeanOccupancy,
		IngestBytes:         st.IngestBytes,
		InitialError:        rmsError(initial, optimum),
		FinalError:          rmsError(params, optimum),
	}
	if rep.InitialError > 0 {
		rep.ErrorReduction = 1 - rep.FinalError/rep.InitialError
	}
	if rep.Updates > 0 {
		rep.BytesPerUpdate = float64(rep.IngestBytes) / float64(rep.Updates)
	}
	return rep, nil
}

// runClient simulates one client session end to end: fetch-compute-submit
// in a loop, recording each submit's round-trip latency (submitting also
// registers and renews the session's liveness lease). Byzantine clients
// submit what byz crafts from their honest gradient; churned clients stop
// after one update and never renew again, so their lease expires.
func runClient(cfg *Config, base string, httpc *http.Client, optimum []float64, byz attack.Attack, i int, lats *[]time.Duration, accepted *atomic.Int64) error {
	isByz, isChurn, isHostile := roles(cfg, i)
	updates := cfg.UpdatesPerClient
	if isChurn {
		updates = 1
	}
	c := &transport.AsyncClient{
		Base: base,
		ID:   fmt.Sprintf("c%07d", i),
		HTTP: httpc,
	}
	ctx := context.Background()
	if isHostile {
		return runHostileClient(ctx, cfg, c, i, updates, lats)
	}
	noise := tensor.NewRNG(cfg.Seed + 7919*int64(i+1))
	grad := make([]float64, len(optimum))
	for u := 0; u < updates; u++ {
		model, err := c.Model(ctx)
		if err != nil {
			return fmt.Errorf("client %d: %w", i, err)
		}
		if model.Done {
			return nil
		}
		for j := range grad {
			grad[j] = model.Params[j] - optimum[j] + 0.1*noise.NormFloat64()
		}
		sub := grad
		if isByz {
			// Reverse draws nothing from the noise stream it is handed.
			if sub, err = attack.Local(byz, grad, noise); err != nil {
				return fmt.Errorf("client %d: %w", i, err)
			}
		}
		t0 := time.Now()
		var res asyncfl.SubmitResult
		if cfg.Codec == nil {
			res, err = c.Submit(ctx, model.Version, 0, sub)
		} else {
			// The noise RNG doubles as the codec stream: both are
			// per-session, so encoding stays deterministic per client.
			enc, encErr := cfg.Codec.Encode(sub, noise)
			if encErr != nil {
				return fmt.Errorf("client %d: codec %s: %w", i, cfg.Codec.Name(), encErr)
			}
			res, err = c.SubmitEncoded(ctx, model.Version, 0, enc)
		}
		lat := time.Since(t0)
		if err != nil {
			return fmt.Errorf("client %d: %w", i, err)
		}
		*lats = append(*lats, lat)
		if res.Accepted {
			accepted.Add(1)
		}
		if res.Done {
			return nil
		}
	}
	return nil
}

// runHostileClient simulates one non-finite attacker: every submission is a
// qsgd payload whose finite Scale amplifies to +Inf on decode — the wire
// shape of the NaN-injection attack. The server must refuse each one with
// HTTP 400; an accepted hostile payload, or any other failure shape, aborts
// the run.
func runHostileClient(ctx context.Context, cfg *Config, c *transport.AsyncClient, i, updates int, lats *[]time.Duration) error {
	hostile := codec.Encoded{Codec: codec.QSGD, Dim: cfg.Dim, Scale: 1e308, Levels: 1, Q: make([]int8, cfg.Dim)}
	for j := range hostile.Q {
		hostile.Q[j] = 127
	}
	for u := 0; u < updates; u++ {
		model, err := c.Model(ctx)
		if err != nil {
			return fmt.Errorf("hostile client %d: %w", i, err)
		}
		if model.Done {
			return nil
		}
		t0 := time.Now()
		_, err = c.SubmitEncoded(ctx, model.Version, 0, hostile)
		lat := time.Since(t0)
		if err == nil {
			return fmt.Errorf("hostile client %d: non-finite payload was accepted", i)
		}
		if !strings.Contains(err.Error(), "400") {
			return fmt.Errorf("hostile client %d: %w", i, err)
		}
		*lats = append(*lats, lat)
	}
	return nil
}

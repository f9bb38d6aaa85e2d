// Command flserver runs the federated-learning parameter server: one
// aggregation core (internal/asyncfl — ingest screen, the selected robust
// rule, SignGuard by default, merge, optimizer step) behind the /asyncfl/v2
// HTTP wire, then the final test accuracy of the global model.
//
// -rule names a defense of the catalog (internal/defense), built for a
// buffer of N updates — -clients in sync mode, -buffer otherwise — with
// -byz as the Byzantine count F the baselines are granted; FLTrust is
// refused, as the serving path has no server reference gradient. It has
// three modes:
//
// Synchronous (default): lock-step rounds, the paper's setting — the core
// run deterministic with a buffer of -clients fresh updates and no
// staleness discount. Client i of -clients submits every round at its own
// schedule position, so a round's buffer is in client order however the
// requests interleave. Round 0 waits up to four -round-timeout periods
// after the first client arrives; from then on a client that misses a round
// for -round-timeout, or whose upload gets HTTP 400, is dropped and
// training continues with the rest.
//
// Asynchronous (-async): clients fetch the versioned model and submit
// gradients whenever they finish, the core aggregates every -buffer
// arrivals under staleness-discounted weights w(s) = 1/(1+s)^alpha with the
// defense filtering each buffer, and training stops after -rounds
// aggregation steps.
//
// In both, -codec lists the compression codecs the server accepts.
//
// Load test (-loadtest): run the in-process load harness
// (internal/asyncfl/loadtest) against the async serving layer — many
// goroutine-cheap simulated clients over real HTTP — and print rounds/s,
// p50/p99 ingest latency, buffer occupancy and model error under the
// configured Byzantine fraction and churn, behind the same -rule and -byz
// (-rule Mean for an undefended run).
//
// The server owns the dataset definition (test split + model architecture)
// so it can evaluate the trained model; clients generate the same dataset
// from the shared seed and train on their own partition (see cmd/flclient).
//
// Examples:
//
//	flserver -addr :9000 -clients 4 -rounds 100 -rule SignGuard
//	flserver -addr :9000 -clients 10 -rule Multi-Krum -byz 2
//	flserver -addr :9000 -clients 4 -codec identity,topk   # accept only these codecs
//	flserver -addr :9000 -async -buffer 8 -alpha 0.5 -rounds 200
//	flserver -loadtest -load-clients 100000 -load-byz 0.1
//	flserver -loadtest -codec topk    # compressed submissions
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
	"strings"
	"time"

	"github.com/signguard/signguard/internal/aggregate"
	"github.com/signguard/signguard/internal/asyncfl"
	"github.com/signguard/signguard/internal/asyncfl/loadtest"
	"github.com/signguard/signguard/internal/cliutil"
	"github.com/signguard/signguard/internal/data"
	"github.com/signguard/signguard/internal/defense"
	"github.com/signguard/signguard/internal/fl"
	"github.com/signguard/signguard/internal/nn"
	"github.com/signguard/signguard/internal/tensor"
	"github.com/signguard/signguard/internal/transport"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:9000", "listen address")
		clients = flag.Int("clients", 4, "lock-step cohort size (sync mode)")
		rounds  = flag.Int("rounds", 100, "training rounds (sync) / aggregation steps (async)")
		ruleStr = flag.String("rule", "SignGuard", "defense in front of the buffer: "+strings.Join(servableRules(), "|"))
		byz     = flag.Int("byz", 0, "assumed Byzantine count F for the rules that take one (TrMean, Multi-Krum, Bulyan, DnC)")
		lr      = flag.Float64("lr", 0.05, "learning rate")
		seed    = flag.Int64("seed", 1, "shared dataset/model seed (must match clients)")
		timeout = flag.Duration("round-timeout", 30*time.Second, "end a round that a client misses after this long, dropping the client (sync mode)")

		async    = flag.Bool("async", false, "serve the buffered asynchronous HTTP protocol instead of synchronous rounds")
		buffer   = flag.Int("buffer", 8, "async: aggregate every K accepted arrivals")
		alpha    = flag.Float64("alpha", 0.5, "async: staleness-discount exponent of w(s)=1/(1+s)^alpha")
		queueCap = flag.Int("queue-cap", asyncfl.DefaultQueueCap, "async: per-client update queue bound (drop-oldest beyond)")
		ttl      = flag.Duration("session-ttl", asyncfl.DefaultSessionTTL, "async: client liveness lease lifetime")

		loadRun     = flag.Bool("loadtest", false, "run the async load harness in-process and exit")
		loadClients = flag.Int("load-clients", 10000, "loadtest: simulated client sessions")
		loadUpdates = flag.Int("load-updates", 2, "loadtest: updates per client")
		loadConc    = flag.Int("load-concurrency", 256, "loadtest: concurrent driver workers")
		loadDim     = flag.Int("load-dim", 64, "loadtest: synthetic model dimensionality")
		loadByz     = flag.Float64("load-byz", 0, "loadtest: Byzantine client fraction")
		loadChurn   = flag.Float64("load-churn", 0, "loadtest: churned client fraction")
		loadHostile = flag.Float64("load-nonfinite", 0, "loadtest: fraction of clients shipping non-finite (NaN-injection) payloads")

		codecStr = flag.String("codec", "", "comma-separated accepted codec list advertised to clients (empty = all built-ins); loadtest: compress simulated client submissions with this codec")
	)
	flag.Parse()

	load := loadtest.Config{
		Clients: *loadClients, UpdatesPerClient: *loadUpdates, Concurrency: *loadConc, Dim: *loadDim,
		K: *buffer, Alpha: *alpha, ByzFraction: *loadByz, ChurnFraction: *loadChurn, NonFiniteFraction: *loadHostile,
		Seed: *seed, Logf: log.Printf,
	}
	if err := errors.Join(validateFlags(*clients, *rounds, *byz, *lr, *timeout, *buffer, *alpha, *queueCap, *ttl), validateLoadFlags(load)); err != nil {
		log.Fatalf("flserver: %v", err)
	}

	var err error
	if *loadRun {
		err = runLoadtest(load, *ruleStr, *byz, *codecStr)
	} else {
		var accepted []string
		if accepted, err = parseAccepted(*codecStr); err == nil {
			// Lock-step rounds are the core's deterministic case: one fresh
			// update per client at fixed schedule positions, nothing to
			// discount, and no session expiry (the round timer drops a
			// client that misses a round).
			cfg, roundTimeout := asyncfl.Config{K: *clients, SessionTTL: -1, Deterministic: true}, *timeout
			if *async {
				cfg, roundTimeout = asyncfl.Config{K: *buffer, Alpha: *alpha, QueueCap: *queueCap, SessionTTL: *ttl}, 0
			}
			cfg.LR, cfg.TargetSteps = *lr, int64(*rounds)
			err = run(*ruleStr, *byz, *seed, cfg, func(agg *asyncfl.Aggregator) error {
				return serveHTTP(*addr, accepted, roundTimeout, agg)
			})
		}
	}
	if err != nil {
		log.Fatalf("flserver: %v", err)
	}
}

// validateFlags rejects out-of-range flag values up front with clear
// errors naming each offending flag (internal/cliutil) instead of passing
// them through to fail (or misbehave) deep in the protocol.
func validateFlags(clients, rounds, byz int, lr float64, timeout time.Duration, buffer int, alpha float64, queueCap int, ttl time.Duration) error {
	return errors.Join(
		cliutil.PositiveInt("-clients", clients),
		cliutil.PositiveInt("-rounds", rounds),
		cliutil.NonNegativeInt("-byz", byz),
		cliutil.PositiveFloat("-lr", lr),
		cliutil.PositiveDuration("-round-timeout", timeout),
		cliutil.PositiveInt("-buffer", buffer),
		cliutil.NonNegativeFloat("-alpha", alpha),
		cliutil.PositiveInt("-queue-cap", queueCap),
		cliutil.PositiveDuration("-session-ttl", ttl),
	)
}

// validateLoadFlags is validateFlags for the -load-* flags, read from the
// load harness config they fill.
func validateLoadFlags(c loadtest.Config) error {
	return errors.Join(
		cliutil.PositiveInt("-load-clients", c.Clients),
		cliutil.PositiveInt("-load-updates", c.UpdatesPerClient),
		cliutil.PositiveInt("-load-concurrency", c.Concurrency),
		cliutil.PositiveInt("-load-dim", c.Dim),
		cliutil.Fraction("-load-byz", c.ByzFraction),
		cliutil.Fraction("-load-churn", c.ChurnFraction),
		cliutil.Fraction("-load-nonfinite", c.NonFiniteFraction),
	)
}

// parseAccepted resolves -codec in either serving mode to the
// accepted-codec list the server advertises (nil = every built-in).
func parseAccepted(codecStr string) ([]string, error) {
	if codecStr == "" {
		return nil, nil
	}
	var accepted []string
	for _, name := range strings.Split(codecStr, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			return nil, fmt.Errorf("-codec: empty name in accepted list %q", codecStr)
		}
		accepted = append(accepted, name)
	}
	return accepted, nil
}

// buildRule resolves -rule through the defense catalog. n is the buffer
// the rule aggregates over (-clients in sync mode, -buffer otherwise) and f
// is -byz.
func buildRule(name string, n, f int, seed int64) (aggregate.Rule, error) {
	return defense.Builtin().Build(name, defense.Params{N: n, F: f, Seed: seed})
}

// servableRules lists the catalog names -rule can serve: every defense but
// those that learn server-side (FLTrust), which asyncfl.New refuses because
// the serving path has no server reference gradient.
func servableRules() (names []string) {
	for _, name := range defense.Builtin().Names() {
		rule, err := buildRule(name, 8, 1, 1)
		if _, learns := aggregate.Unwrap(rule).(aggregate.ServerLearner); err == nil && !learns {
			names = append(names, name)
		}
	}
	return names
}

// sharedModel is the model architecture both server and clients build from
// the shared seed (MNIST-analog CNN).
func sharedModel(seed int64) (nn.Classifier, error) {
	return nn.NewImageCNN(tensor.NewRNG(seed), 1, 8, 8, 6, 32, 10)
}

// run is the one serving path: build the rule and the aggregator cfg
// describes around the shared model, hand it to the chosen wire until
// training is done, then report the counters and evaluate the global model.
func run(ruleStr string, byz int, seed int64, cfg asyncfl.Config, serve func(*asyncfl.Aggregator) error) error {
	rule, err := buildRule(ruleStr, cfg.K, byz, seed)
	if err != nil {
		return err
	}
	model, err := sharedModel(seed)
	if err != nil {
		return err
	}
	ds, err := data.MNISTLike(seed, 4000, 1000)
	if err != nil {
		return err
	}
	cfg.InitialParams, cfg.Rule = model.ParamVector(), rule
	cfg.Momentum, cfg.WeightDecay = 0.9, 5e-4
	cfg.Logf = log.Printf
	agg, err := asyncfl.New(cfg)
	if err != nil {
		return err
	}
	log.Printf("flserver: rule=%s, buffer=%d, alpha=%v, steps=%d", rule.Name(), cfg.K, cfg.Alpha, cfg.TargetSteps)
	if err := serve(agg); err != nil {
		return err
	}

	st := agg.Stats()
	log.Printf("flserver: run complete: %d steps, %d arrivals, %d drops, %d rejects (%d non-finite), mean buffer occupancy %.1f",
		st.Steps, st.Arrivals, st.Drops, st.Rejects, st.NonFiniteRejects, st.MeanOccupancy)
	_, params, _ := agg.Model()
	if err := model.SetParamVector(params); err != nil {
		return err
	}
	acc, err := fl.Evaluate(model, ds, ds.Test)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stdout, "final test accuracy: %.2f%%\n", acc)
	return nil
}

// serveHTTP serves the /asyncfl/v2 wire in front of agg until the target
// number of aggregation steps completes. accepted is the codec accept-list
// advertised to clients (nil = every built-in codec); a positive
// roundTimeout serves lock-step rounds, ending each round a client misses
// after that long.
func serveHTTP(addr string, accepted []string, roundTimeout time.Duration, agg *asyncfl.Aggregator) error {
	handler, err := transport.NewAsyncCodecHandler(agg, accepted)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("listen %s: %w", addr, err)
	}
	httpSrv := &http.Server{Handler: handler}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	log.Printf("flserver: serving on %s", ln.Addr())

	wait := func() error { <-agg.Done(); return nil }
	if roundTimeout > 0 {
		wait = func() error { return transport.RunRoundTimer(context.Background(), agg, roundTimeout, log.Printf) }
	}
	finished := make(chan error, 1)
	go func() { finished <- wait() }()
	select {
	case err = <-finished:
	case err := <-serveErr:
		return err
	}
	if err == nil {
		// Linger briefly so clients polling for Done observe the final
		// model before the socket disappears.
		time.Sleep(time.Second)
	}
	if closeErr := httpSrv.Close(); err == nil {
		err = closeErr
	}
	if sErr := <-serveErr; err == nil && !errors.Is(sErr, http.ErrServerClosed) {
		err = sErr
	}
	return err
}

// runLoadtest completes cfg with the -rule defense in front of the buffer
// and the -codec every simulated client compresses with, drives the
// in-process load harness and prints its report.
func runLoadtest(cfg loadtest.Config, ruleStr string, byz int, codecStr string) (err error) {
	if cfg.Rule, err = buildRule(ruleStr, cfg.K, byz, cfg.Seed); err != nil {
		return err
	}
	if cfg.Codec, err = cliutil.Codec(codecStr); err != nil {
		return err
	}
	rep, err := loadtest.Run(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stdout, rep)
	return nil
}

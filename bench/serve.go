package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/signguard/signguard/internal/aggregate"
	"github.com/signguard/signguard/internal/asyncfl"
	"github.com/signguard/signguard/internal/codec"
	"github.com/signguard/signguard/internal/defense"
	"github.com/signguard/signguard/internal/sanitize"
	"github.com/signguard/signguard/internal/tensor"
	"github.com/signguard/signguard/internal/transport"
)

// serveSpec describes the serving workload: the buffered asynchronous
// aggregator behind its HTTP handler on loopback, driven by a closed loop
// of persistent connections that run client sessions one after another.
type serveSpec struct {
	name string
	dim  int
	// sessions run per unit, each submitting updatesPerSession times.
	sessions, updatesPerSession int
	warmSessions                int
	// replaySubmits is how many in-process submits the direct replay times.
	replaySubmits int
	// minErrorDrop is the least share by which the RMS distance to the
	// synthetic optimum must fall over a unit.
	minErrorDrop float64
}

const (
	serveK     = 32
	serveAlpha = 0.5
	serveLR    = 0.05
	serveRule  = "SignGuard"
	// One session in 50 is hostile and one in 10 Byzantine; the rest are
	// honest. Every other non-hostile session ships topk payloads.
	hostileEvery, byzEvery = 50, 10
	spanHeader             = "X-Bench-Span"
)

func (s serveSpec) workload() workload {
	return workload{
		name: s.name, op: "accepted update", tailPct: 0.99,
		setup: func(e env) (instance, map[string]float64, error) { return s.setup(e) },
	}
}

type serveInstance struct {
	spec    serveSpec
	env     env
	optimum []float64
	topk    codec.Codec
	hostile codec.Encoded
}

func (s serveSpec) setup(e env) (*serveInstance, map[string]float64, error) {
	topk, err := codec.Builtin().Build(codec.TopK, codec.Params{})
	if err != nil {
		return nil, nil, err
	}
	// The hostile payload is finite on the wire and amplifies to +Inf on
	// decode: the server must refuse it with HTTP 400.
	hostile := codec.Encoded{Codec: codec.QSGD, Dim: s.dim, Scale: 1e308, Levels: 1, Q: make([]int8, s.dim)}
	for j := range hostile.Q {
		hostile.Q[j] = 127
	}
	inst := &serveInstance{
		spec: s, env: e, topk: topk, hostile: hostile,
		optimum: tensor.RandNormal(tensor.NewRNG(e.seed*1000+3), s.dim, 0, 1),
	}
	// Warm-up unit: a short load run through a server of its own.
	if _, err := inst.load(nil, s.warmSessions); err != nil {
		return nil, nil, fmt.Errorf("warm-up load: %w", err)
	}
	return inst, nil, nil
}

func (i *serveInstance) close() error { return nil }

func (i *serveInstance) newRule() (aggregate.Rule, error) {
	return defense.Builtin().Build(serveRule, defense.Params{N: serveK, Seed: i.env.seed + 11})
}

func (i *serveInstance) newAggregator(rule aggregate.Rule) (*asyncfl.Aggregator, error) {
	return asyncfl.New(asyncfl.Config{
		InitialParams: make([]float64, i.spec.dim),
		K:             serveK, Alpha: serveAlpha, Rule: rule, LR: serveLR,
	})
}

// role says what session n of a unit is.
func role(n int) (hostile, byz, encoded bool) {
	hostile = n%hostileEvery == hostileEvery-1
	byz = !hostile && n%byzEvery == byzEvery-1
	return hostile, byz, !hostile && n%2 == 1
}

// gradient fills grad with the synthetic task's gradient at params: the
// distance to the optimum plus client noise, sign-flipped and scaled by
// five for a Byzantine client.
func (i *serveInstance) gradient(grad, params []float64, noise *rand.Rand, byz bool) {
	for j := range grad {
		g := params[j] - i.optimum[j] + 0.1*noise.NormFloat64()
		if byz {
			g = -5 * g
		}
		grad[j] = g
	}
}

func rms(params, optimum []float64) float64 {
	var sum float64
	for j := range params {
		d := params[j] - optimum[j]
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(params)))
}

// connTally is what one connection of the closed loop observed.
type connTally struct {
	attempted, accepted, hostileSent, failed int
	submitMS, fetchUS                        []float64
	firstErr                                 error
}

func (i *serveInstance) unit(tr *tracer) (*unitResult, error) {
	u, err := i.load(tr, i.spec.sessions)
	if err != nil || tr == nil {
		return u, err
	}
	if err := i.replay(tr, u); err != nil {
		return nil, err
	}
	u.spans = tr.snapshot()
	return u, nil
}

// load starts an aggregator and its HTTP server on loopback, drives the
// given number of sessions through it and checks what the server counted.
func (i *serveInstance) load(tr *tracer, sessions int) (*unitResult, error) {
	rule, err := i.newRule()
	if err != nil {
		return nil, err
	}
	if tr != nil {
		rule = &tracedRule{Rule: rule, tr: tr}
	}
	agg, err := i.newAggregator(rule)
	if err != nil {
		return nil, err
	}
	handler, err := transport.NewAsyncCodecHandler(agg, nil)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		handler = tracedHandler{handler, tr}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: handler}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	stop := func() error {
		closeErr := srv.Close()
		if err := <-served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return closeErr
	}

	conns := i.env.workers
	tallies := make([]connTally, conns)
	a0 := totalAllocMB()
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			i.drive(tr, "http://"+ln.Addr().String(), c, conns, sessions, &tallies[c])
		}(c)
	}
	wg.Wait()
	wall := time.Since(t0)
	allocMB := totalAllocMB() - a0
	if err := stop(); err != nil {
		return nil, err
	}

	u := &unitResult{wall: wall, allocMB: allocMB}
	_, params, _ := agg.Model()
	if conns == 1 {
		// One connection fixes the arrival schedule, and with it the model.
		u.digest = paramDigest(params)
	}
	var hostileSent int
	var fetchUS []float64
	for c := range tallies {
		t := &tallies[c]
		if t.firstErr != nil {
			// A failed operation is counted, not fatal; keep the first cause.
			u.checks = append(u.checks, "first failed request: "+t.firstErr.Error())
		}
		u.ops += t.accepted
		u.attempted += t.attempted
		u.failed += t.failed
		hostileSent += t.hostileSent
		u.latMS = append(u.latMS, t.submitMS...)
		fetchUS = append(fetchUS, t.fetchUS...)
	}
	if tr != nil {
		// In the trace a step's defense span carries no parent: nothing
		// outside the aggregator can see which request triggered it.
		tr.add("serve.load", 0, 0, t0, t0.Add(wall))
	}

	stats := agg.Stats()
	drop := 1 - rms(params, i.optimum)/rms(make([]float64, i.spec.dim), i.optimum)
	u.counts = map[string]float64{"accepted": float64(u.ops), "hostile_submits": float64(hostileSent)}
	if stats.Arrivals != int64(u.ops) {
		u.checks = append(u.checks, fmt.Sprintf("server counted %d arrivals, clients %d accepted updates", stats.Arrivals, u.ops))
	}
	if stats.NonFiniteRejects != int64(hostileSent) {
		u.checks = append(u.checks, fmt.Sprintf("server refused %d non-finite payloads, clients sent %d", stats.NonFiniteRejects, hostileSent))
	}
	if drop < i.spec.minErrorDrop {
		u.checks = append(u.checks, fmt.Sprintf("RMS distance to the optimum fell by %.1f%%, need %.0f%%", 100*drop, 100*i.spec.minErrorDrop))
	}
	if tr == nil {
		return u, nil
	}

	spans := tr.snapshot()
	handlerUS := durationsOf(spans, "transport.handler.update", time.Microsecond)
	var buffered, kept int
	var staleSum float64
	for _, h := range agg.History() {
		buffered += h.Buffer
		kept += h.Kept
		staleSum += h.MeanStaleness * float64(h.Buffer)
	}
	u.layers = map[string]float64{
		"transport.handler_us_p50":          percentile(handlerUS, 0.50),
		"transport.handler_us_p99":          percentile(handlerUS, 0.99),
		"transport.client_overhead_us_p50":  1000*percentile(u.latMS, 0.50) - percentile(handlerUS, 0.50),
		"transport.model_fetch_us_p50":      percentile(fetchUS, 0.50),
		"transport.ingest_bytes_per_update": float64(stats.IngestBytes) / float64(max(stats.Arrivals, 1)),
		"asyncfl.defense_ms_per_step":       float64(sumNS(spans, "asyncfl.defense")) / float64(time.Millisecond) / float64(max(stats.Steps, 1)),
		"asyncfl.defense_kept_share":        float64(kept) / float64(max(buffered, 1)),
		"asyncfl.mean_occupancy":            stats.MeanOccupancy,
		"asyncfl.mean_staleness":            staleSum / float64(max(buffered, 1)),
		"asyncfl.steps":                     float64(stats.Steps),
		"asyncfl.rejects":                   float64(stats.Rejects),
		"asyncfl.nonfinite_rejects":         float64(stats.NonFiniteRejects),
	}
	return u, nil
}

// drive is one connection of the closed loop: it runs its share of the
// unit's sessions one after another over one persistent connection, each
// request sent only after the previous reply. It refetches the model when
// a reply's Version is ahead of the one it holds.
func (i *serveInstance) drive(tr *tracer, base string, conn, conns, sessions int, tally *connTally) {
	var rt http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: 1}
	if tr != nil {
		rt = &spanTransport{rt}
	}
	httpc := &http.Client{Transport: rt}
	defer httpc.CloseIdleConnections()
	fail := func(err error) {
		tally.failed++
		if tally.firstErr == nil {
			tally.firstErr = err
		}
	}
	ctx := context.Background()
	grad := make([]float64, i.spec.dim)
	var model transport.AsyncModelResponse
	// traced opens a client span and returns the context that carries it
	// to the server; with tracing off both are no-ops.
	traced := func(name string, op int) (context.Context, func()) {
		if tr == nil {
			return ctx, func() {}
		}
		id := tr.begin(name, op, 0)
		return context.WithValue(ctx, spanKey{}, id), func() { tr.end(id) }
	}
	fetch := func(c *transport.AsyncClient) error {
		reqCtx, end := traced("client.model_fetch", 0)
		t0 := time.Now()
		m, err := c.Model(reqCtx)
		lat := time.Since(t0)
		end()
		if err != nil {
			return err
		}
		tally.fetchUS = append(tally.fetchUS, float64(lat)/float64(time.Microsecond))
		model = m
		return nil
	}

	for n := conn; n < sessions; n += conns {
		hostile, byz, encoded := role(n)
		c := &transport.AsyncClient{Base: base, ID: fmt.Sprintf("s%06d", n), HTTP: httpc}
		noise := tensor.NewRNG(i.env.seed*1000 + 7919*int64(n+1))
		if model.Params == nil {
			if err := fetch(c); err != nil {
				fail(err)
				return
			}
		}
		for k := 0; k < i.spec.updatesPerSession; k++ {
			tally.attempted++
			var enc codec.Encoded
			switch {
			case hostile:
				enc = i.hostile
			default:
				i.gradient(grad, model.Params, noise, byz)
				if encoded {
					var err error
					if enc, err = i.topk.Encode(grad, noise); err != nil {
						fail(err)
						continue
					}
				}
			}

			reqCtx, end := traced("client.submit", n*i.spec.updatesPerSession+k+1)
			t0 := time.Now()
			var res asyncfl.SubmitResult
			var err error
			if hostile || encoded {
				res, err = c.SubmitEncoded(reqCtx, model.Version, 0, enc)
			} else {
				res, err = c.Submit(reqCtx, model.Version, 0, grad)
			}
			lat := time.Since(t0)
			end()

			switch {
			case hostile:
				// A refused hostile payload is a success, an accepted one
				// a failure.
				tally.hostileSent++
				if err == nil {
					fail(fmt.Errorf("session %d: non-finite payload was accepted", n))
				} else if !strings.Contains(err.Error(), "HTTP 400") {
					fail(err)
				}
				continue
			case err != nil:
				fail(err)
				continue
			case !res.Accepted:
				fail(fmt.Errorf("session %d: update against version %d refused at version %d", n, model.Version, res.Version))
			default:
				tally.accepted++
			}
			tally.submitMS = append(tally.submitMS, float64(lat)/float64(time.Millisecond))
			if res.Version > model.Version {
				if err := fetch(c); err != nil {
					fail(err)
					return
				}
			}
		}
	}
}

// replay times the layers under the handler directly, in process:
// asyncfl.Aggregator.Submit (split into stepping and non-stepping calls),
// the topk encode, codec.Registry.Decode and sanitize.Screen.
func (i *serveInstance) replay(tr *tracer, u *unitResult) error {
	rule, err := i.newRule()
	if err != nil {
		return err
	}
	agg, err := i.newAggregator(rule)
	if err != nil {
		return err
	}
	noise := tensor.NewRNG(i.env.seed*1000 + 17)
	version, params, _ := agg.Model()
	var plainUS, stepMS []float64
	grad := make([]float64, i.spec.dim) // Submit copies what it buffers
	r0 := time.Now()
	for n := 0; n < i.spec.replaySubmits; n++ {
		_, byz, _ := role(n / i.spec.updatesPerSession)
		i.gradient(grad, params, noise, byz)
		t0 := time.Now()
		res, err := agg.Submit(asyncfl.Update{Client: "replay-" + strconv.Itoa(n%serveK), Version: version, Grad: grad})
		d := time.Since(t0)
		if err != nil {
			return fmt.Errorf("replaying Submit: %w", err)
		}
		if res.Stepped {
			stepMS = append(stepMS, float64(d)/float64(time.Millisecond))
			version, params, _ = agg.Model()
		} else {
			plainUS = append(plainUS, float64(d)/float64(time.Microsecond))
		}
	}
	tr.add("replay.asyncfl.submit", 0, 0, r0, time.Now())

	const codecReplays = 500
	i.gradient(grad, params, noise, false)
	encs := make([]codec.Encoded, codecReplays)
	e0 := time.Now()
	for n := range encs {
		if encs[n], err = i.topk.Encode(grad, noise); err != nil {
			return err
		}
	}
	e1 := time.Now()
	reg := codec.Builtin()
	for n := range encs {
		if _, err := reg.Decode(encs[n]); err != nil {
			return err
		}
	}
	d1 := time.Now()
	for n := 0; n < codecReplays; n++ {
		if sanitize.Screen(grad, sanitize.Reject) != sanitize.Clean {
			return errors.New("replaying Screen: a finite gradient was not clean")
		}
	}
	s1 := time.Now()
	tr.add("replay.codec.encode", 0, 0, e0, e1)
	tr.add("replay.codec.decode", 0, 0, e1, d1)
	tr.add("replay.sanitize.screen", 0, 0, d1, s1)

	perUpdateUS := func(d time.Duration) float64 {
		return float64(d) / float64(time.Microsecond) / codecReplays
	}
	u.layers["asyncfl.submit_us_p50"] = percentile(plainUS, 0.50)
	u.layers["asyncfl.step_ms_p50"] = percentile(stepMS, 0.50)
	u.layers["codec.encode_us_per_update"] = perUpdateUS(e1.Sub(e0))
	u.layers["codec.decode_us_per_update"] = perUpdateUS(d1.Sub(e1))
	u.layers["sanitize.screen_us_per_update"] = perUpdateUS(s1.Sub(d1))
	return nil
}

// tracedRule times the defense of each aggregation step from outside. It
// forwards SetWorkers, so the rule's kernels keep their parallelism.
type tracedRule struct {
	aggregate.Rule
	tr    *tracer
	steps int
}

func (r *tracedRule) SetWorkers(n int) { aggregate.SetWorkers(r.Rule, n) }

func (r *tracedRule) Aggregate(grads [][]float64) (*aggregate.Result, error) {
	t0 := time.Now()
	res, err := r.Rule.Aggregate(grads)
	// Steps run one at a time under the aggregator's lock.
	r.steps++
	r.tr.add("asyncfl.defense", r.steps, 0, t0, time.Now())
	return res, err
}

// tracedHandler times every request in the server, under the client span
// the request names in its header.
type tracedHandler struct {
	http.Handler
	tr *tracer
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	name := "transport.handler.other"
	switch r.URL.Path {
	case transport.AsyncPathUpdate:
		name = "transport.handler.update"
	case transport.AsyncPathModel:
		name = "transport.handler.model"
	}
	parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
	t0 := time.Now()
	h.Handler.ServeHTTP(w, r)
	h.tr.add(name, h.tr.opOf(parent), parent, t0, time.Now())
}

// spanKey carries the client span of a request in its context, and
// spanTransport copies it into a header for tracedHandler to read.
type spanKey struct{}

type spanTransport struct{ base http.RoundTripper }

func (t *spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(spanKey{}).(int); ok {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, strconv.Itoa(id))
	}
	return t.base.RoundTrip(r)
}

func (t *spanTransport) CloseIdleConnections() {
	if c, ok := t.base.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}

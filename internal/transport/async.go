package transport

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"github.com/signguard/signguard/internal/asyncfl"
	"github.com/signguard/signguard/internal/codec"
)

// NewAsyncHandler mounts the submit/fetch protocol over the buffered
// aggregator: clients fetch the versioned model and submit gradients
// whenever they finish computing — the HTTP face of internal/asyncfl. On a
// deterministic aggregator the same handler serves lock-step rounds
// (RunAsyncClient with a Cohort, RunRoundTimer). Every builtin compression
// codec is accepted on submit; use NewAsyncCodecHandler to narrow the list.
func NewAsyncHandler(agg *asyncfl.Aggregator) http.Handler {
	h, err := NewAsyncCodecHandler(agg, nil)
	if err != nil {
		panic(err) // unreachable: a nil accepted list is always valid
	}
	return h
}

// NewAsyncCodecHandler is NewAsyncHandler with an explicit accepted-codec
// policy: accepted lists the internal/codec registry names the server
// advertises in model fetches and decodes on submit (nil = all builtin).
// Encoded submits naming any other codec are refused, so a fleet can be
// held to, say, topk-only traffic.
func NewAsyncCodecHandler(agg *asyncfl.Aggregator, accepted []string) (http.Handler, error) {
	reg := codec.Builtin()
	if accepted == nil {
		accepted = reg.Names()
	}
	acceptSet := make(map[string]bool, len(accepted))
	for _, name := range accepted {
		if !reg.Has(name) {
			return nil, fmt.Errorf("transport: unknown codec %q in accepted list (registry has %v)", name, reg.Names())
		}
		acceptSet[name] = true
	}
	dim := agg.Dim()
	submitCap := maxAsyncSubmitBody(dim)
	// Every d-sized buffer a request needs comes from this handler's own
	// scratch and goes back when the request is done with it: the submit
	// path returns it only after Submit, which copies what it keeps.
	// Requests run concurrently and share no lock, hence a pool; fresh
	// scratch per request triples what serving an update allocates
	// (docs/ARCHITECTURE.md, "Who owns the scratch").
	scratch := sync.Pool{New: func() any { return newAsyncScratch(dim) }}
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+AsyncPathModel, func(w http.ResponseWriter, _ *http.Request) {
		s := scratch.Get().(*asyncScratch)
		defer scratch.Put(s)
		version, params, done := agg.ModelInto(s.grad)
		writeAsyncModel(w, &AsyncModelResponse{Version: version, Params: params, Codecs: accepted, Done: done}, s)
	})
	mux.HandleFunc("POST "+AsyncPathUpdate, func(w http.ResponseWriter, r *http.Request) {
		s := scratch.Get().(*asyncScratch)
		defer scratch.Put(s)
		req, ok := readAsyncSubmit(w, r, submitCap, s)
		if !ok {
			return
		}
		grad, wireBytes := req.Grad, 0
		if enc := req.Encoded; enc != nil {
			// Refusals from here on never reach Submit: Refuse accounts
			// them, and decides their schedule position.
			refuse := func(nonFinite bool, format string, args ...any) {
				agg.Refuse(req.Client, req.Seq, nonFinite)
				http.Error(w, fmt.Sprintf(format, args...), http.StatusBadRequest)
			}
			if !acceptSet[enc.Codec] {
				refuse(false, "codec %q not accepted (server accepts %v)", enc.Codec, accepted)
				return
			}
			// Bound the declared dimension before decoding: Dim sizes the
			// decode, and it is attacker-controlled wire input — a
			// dimension the aggregator would reject anyway must not reach
			// a codec at all.
			if enc.Dim != dim {
				refuse(false, "encoded payload declares dim %d, want %d", enc.Dim, dim)
				return
			}
			var err error
			if grad, err = reg.Decode(enc.WithDst(s.grad)); err != nil {
				// A payload that carries or amplifies to NaN/±Inf counts with
				// the screen's rejections (a dense NaN reaches the screen).
				refuse(errors.Is(err, codec.ErrNonFinite), "decoding %s payload: %v", enc.Codec, err)
				return
			}
			wireBytes = enc.Bytes()
		}
		res, err := agg.Submit(asyncfl.Update{Client: req.Client, Version: req.Version, Seq: req.Seq, Grad: grad, WireBytes: wireBytes})
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		asyncWriteJSON(w, res)
	})
	mux.HandleFunc("POST "+AsyncPathHeartbeat, func(w http.ResponseWriter, r *http.Request) {
		var req AsyncHeartbeatRequest
		if !asyncReadJSON(w, r, &req) {
			return
		}
		if req.Client == "" {
			http.Error(w, "heartbeat requires a Client id", http.StatusBadRequest)
			return
		}
		version, done := agg.Heartbeat(req.Client)
		asyncWriteJSON(w, AsyncHeartbeatResponse{Version: version, Done: done})
	})
	mux.HandleFunc("GET "+AsyncPathStats, func(w http.ResponseWriter, _ *http.Request) {
		asyncWriteJSON(w, agg.Stats())
	})
	return mux, nil
}

func asyncWriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// asyncReadJSON decodes a control-plane request body (1 MiB at most).
func asyncReadJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(v); err != nil {
		http.Error(w, fmt.Sprintf("bad request body: %v", err), http.StatusBadRequest)
		return false
	}
	if dec.More() {
		http.Error(w, "bad request body: trailing data after JSON value", http.StatusBadRequest)
		return false
	}
	return true
}

// AsyncClient is a client of the asynchronous protocol. The zero HTTP
// field uses http.DefaultClient; load harnesses share one pooled client
// across many sessions so sockets are reused.
type AsyncClient struct {
	// Base is the server address: "host:port" or a full http:// URL.
	Base string
	// ID identifies this session in every request.
	ID string
	// HTTP is the underlying client (nil = http.DefaultClient).
	HTTP *http.Client
}

func (c *AsyncClient) url(path string) string {
	base := c.Base
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return strings.TrimSuffix(base, "/") + path
}

func (c *AsyncClient) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// Model fetches the current global model.
func (c *AsyncClient) Model(ctx context.Context) (AsyncModelResponse, error) {
	raw, err := c.roundTrip(ctx, http.MethodGet, AsyncPathModel, "", nil)
	if err != nil {
		return AsyncModelResponse{}, err
	}
	out, err := parseAsyncModel(raw)
	if err != nil {
		return out, fmt.Errorf("transport: decoding %s response: %w", AsyncPathModel, err)
	}
	return out, nil
}

// Submit uploads one gradient computed against the given model version and
// returns the server's backpressure/staleness signals.
func (c *AsyncClient) Submit(ctx context.Context, version int, seq int64, grad []float64) (asyncfl.SubmitResult, error) {
	return c.submit(ctx, &AsyncSubmitRequest{Client: c.ID, Version: version, Seq: seq, Grad: grad})
}

// SubmitEncoded uploads one compressed gradient. The server must accept
// the payload's codec (see AsyncModelResponse.Codecs) or the submit fails.
func (c *AsyncClient) SubmitEncoded(ctx context.Context, version int, seq int64, enc codec.Encoded) (asyncfl.SubmitResult, error) {
	return c.submit(ctx, &AsyncSubmitRequest{Client: c.ID, Version: version, Seq: seq, Encoded: &enc})
}

// submit posts one binary update body. The body is built fresh each time:
// the HTTP transport may still be reading it after a server that answers
// early has already been heard from.
func (c *AsyncClient) submit(ctx context.Context, req *AsyncSubmitRequest) (asyncfl.SubmitResult, error) {
	var out asyncfl.SubmitResult
	body, err := appendAsyncSubmit(nil, req)
	if err != nil {
		return out, fmt.Errorf("transport: encoding %s request: %w", AsyncPathUpdate, err)
	}
	return out, c.call(ctx, http.MethodPost, AsyncPathUpdate, asyncBinaryType, body, &out)
}

// Heartbeat renews this session's liveness lease without submitting.
func (c *AsyncClient) Heartbeat(ctx context.Context) (AsyncHeartbeatResponse, error) {
	var out AsyncHeartbeatResponse
	body, _ := json.Marshal(AsyncHeartbeatRequest{Client: c.ID}) // a struct of one string always marshals
	return out, c.call(ctx, http.MethodPost, AsyncPathHeartbeat, "application/json", body, &out)
}

// call performs one exchange whose reply is JSON (the control plane, and
// the reply to a submit).
func (c *AsyncClient) call(ctx context.Context, method, path, contentType string, body []byte, out any) error {
	raw, err := c.roundTrip(ctx, method, path, contentType, body)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("transport: decoding %s response: %w", path, err)
	}
	return nil
}

// roundTrip sends one request (nil body = none) and returns the body of a
// 200 reply; any other status becomes an error carrying the server's text.
func (c *AsyncClient) roundTrip(ctx context.Context, method, path, contentType string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.url(path), rd)
	if err != nil {
		return nil, fmt.Errorf("transport: building %s request: %w", path, err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, fmt.Errorf("transport: %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return nil, fmt.Errorf("transport: %s: HTTP %d: %s", path, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	var buf []byte
	if n := resp.ContentLength; n > 0 && n <= maxPresizedReply {
		buf = make([]byte, 0, n+1) // +1: room to see EOF without growing
	}
	raw, err := readAll(buf, resp.Body)
	if err != nil {
		return nil, fmt.Errorf("transport: reading %s response: %w", path, err)
	}
	return raw, nil
}

// maxPresizedReply is the largest Content-Length a client sizes its read
// by up front; a reply claiming more is read by growing as bytes arrive.
// A Content-Length is a claim, not a length: the read always runs to EOF.
const maxPresizedReply = 64 << 20

// GradientFunc computes the gradient a client submits against a model
// version, given that version's global parameters. Honest clients return a
// local stochastic gradient; Byzantine clients may return anything (the
// cmd/flclient binary wires local attack behaviours here).
type GradientFunc func(round int, params []float64) ([]float64, error)

// AsyncClientConfig describes one participant loop.
type AsyncClientConfig struct {
	// Addr is the server address ("host:port" or http:// URL).
	Addr string
	// ID identifies the session.
	ID string
	// Compute produces the gradient for each fetched model; its round
	// argument receives the model version (required).
	Compute GradientFunc
	// MaxUpdates stops after that many accepted submissions (0 = run
	// until the server reports Done).
	MaxUpdates int
	// Codec, when non-nil, compresses every submission through this wire
	// format. The server must advertise the codec's registry name
	// (AsyncModelResponse.Codecs) or the client fails fast on the first
	// fetch rather than ship payloads the server cannot decode.
	Codec codec.Codec
	// Rng feeds stochastic codecs (qsgd); required when Codec uses
	// randomness, unused otherwise.
	Rng *rand.Rand
	// Cohort, when > 0, makes the client member Slot of a lock-step cohort
	// of that many — the paper's synchronous rounds, served by a
	// deterministic aggregator with K = Cohort: each round it submits at
	// schedule position version·Cohort + Slot, then polls the heartbeat
	// until the version moves; an HTTP error ends it, and the round timer
	// drops it. 0 submits freely, with no schedule.
	Cohort int
	// Slot is the client's place in a lock-step cohort, in [0, Cohort).
	Slot int
}

// retryDelay spaces out a free client's refetch after a refused submit, so
// a persistently refused client does not hot-loop against the server.
const retryDelay = 50 * time.Millisecond

// A lock-step member polls for the end of its round after lockstepPollMin,
// doubling up to lockstepPollMax: quick to see a round end, cheap when long.
const (
	lockstepPollMin = 100 * time.Microsecond
	lockstepPollMax = 10 * time.Millisecond
)

// RunAsyncClient joins a training session: it repeatedly fetches the
// versioned model, computes a gradient against it, and submits. A free
// client never waits on the others; a lock-step member (Cohort > 0) submits
// at its schedule position and waits for the round to end. It returns the
// latest fetched parameters when the server reports Done, MaxUpdates is
// reached, or ctx is cancelled.
func RunAsyncClient(ctx context.Context, cfg AsyncClientConfig) ([]float64, error) {
	if cfg.Compute == nil {
		return nil, fmt.Errorf("transport: AsyncClientConfig.Compute is required")
	}
	if cfg.Cohort < 0 || cfg.Cohort > 0 && (cfg.Slot < 0 || cfg.Slot >= cfg.Cohort) {
		return nil, fmt.Errorf("transport: lock-step slot %d outside a cohort of %d", cfg.Slot, cfg.Cohort)
	}
	c := &AsyncClient{Base: cfg.Addr, ID: cfg.ID}
	if cfg.Cohort > 0 {
		// Join before the first round: the round timer starts counting
		// only once a member has been seen.
		if _, err := c.Heartbeat(ctx); err != nil {
			return nil, err
		}
	}
	var params []float64
	checkedCodec := cfg.Codec == nil
	for submitted := 0; ; {
		if err := ctx.Err(); err != nil {
			return params, fmt.Errorf("transport: cancelled: %w", err)
		}
		model, err := c.Model(ctx)
		if err != nil {
			return params, err
		}
		params = model.Params
		if model.Done {
			return params, nil
		}
		grad, err := cfg.Compute(model.Version, model.Params)
		if err != nil {
			return params, fmt.Errorf("transport: computing gradient for version %d: %w", model.Version, err)
		}
		var seq int64
		if cfg.Cohort > 0 {
			seq = int64(model.Version)*int64(cfg.Cohort) + int64(cfg.Slot)
		}
		var res asyncfl.SubmitResult
		if cfg.Codec == nil {
			res, err = c.Submit(ctx, model.Version, seq, grad)
		} else {
			enc, encErr := cfg.Codec.Encode(grad, cfg.Rng)
			if encErr != nil {
				return params, fmt.Errorf("transport: codec %s encode: %w", cfg.Codec.Name(), encErr)
			}
			if !checkedCodec {
				// Fail fast on the first submit: a server that does not
				// advertise the codec would reject every upload anyway.
				if !slices.Contains(model.Codecs, enc.Codec) {
					return params, fmt.Errorf("transport: server does not accept codec %q (advertises %v)", enc.Codec, model.Codecs)
				}
				checkedCodec = true
			}
			res, err = c.SubmitEncoded(ctx, model.Version, seq, enc)
		}
		if err != nil {
			return params, err
		}
		if res.Done {
			continue // the next fetch returns the final model
		}
		if res.Accepted {
			submitted++
			if cfg.MaxUpdates > 0 && submitted >= cfg.MaxUpdates {
				return params, nil
			}
		}
		switch {
		case cfg.Cohort > 0:
			if res.Version == model.Version {
				if err := c.awaitVersion(ctx, model.Version); err != nil {
					return params, err
				}
			}
		case !res.Accepted && !res.Held:
			// Refused (future-versioned, non-finite, ...): the very next
			// fetch/compute/submit would likely be refused for the same
			// reason, so back off instead of hammering the server the
			// backpressure signals are trying to protect.
			select {
			case <-ctx.Done():
				return params, fmt.Errorf("transport: cancelled: %w", ctx.Err())
			case <-time.After(retryDelay):
			}
		}
	}
}

// awaitVersion polls the heartbeat until the model version is no longer v
// or training is done.
func (c *AsyncClient) awaitVersion(ctx context.Context, v int) error {
	for delay := lockstepPollMin; ; delay = min(2*delay, lockstepPollMax) {
		hb, err := c.Heartbeat(ctx)
		if err != nil {
			return err
		}
		if hb.Version != v || hb.Done {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("transport: cancelled: %w", ctx.Err())
		case <-time.After(delay):
		}
	}
}

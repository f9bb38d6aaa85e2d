package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/signguard/signguard/internal/aggregate"
	"github.com/signguard/signguard/internal/asyncfl"
	"github.com/signguard/signguard/internal/codec"
	"github.com/signguard/signguard/internal/core"
	"github.com/signguard/signguard/internal/tensor"
)

// TestHostileNaNEndToEnd is the deterministic regression for non-finite
// gradients at every door a gradient can come through: five honest clients
// and one hostile client run 20 rounds over each kind of session, under an
// undefended mean, a Multi-Krum that selects the whole buffer (what
// `flserver -rule Multi-Krum` builds at -byz 0), FLAME — the k-means rule,
// whose clustering was the original crash chain (NaN points -> NaN inertia
// in every restart -> nil cluster result -> nil deref) — and SignGuard, the
// clustering rules FiniteGuard-wrapped as the defense registry wraps them. Every
// hostile submit must be refused and counted, every round must still step on
// the honest five, and the model must stay finite. The lock-step rows under
// Mean and Multi-Krum ended with a NaN model while a gob round server still
// aggregated whatever it decoded.
func TestHostileNaNEndToEnd(t *testing.T) {
	const dim, honest, rounds = 16, 5, 20
	target := make([]float64, dim)
	for j := range target {
		target[j] = 1
	}
	rules := []struct {
		name string
		new  func(n int) aggregate.Rule
	}{
		{"Mean", func(int) aggregate.Rule { return aggregate.NewMean() }},
		{"Multi-Krum", func(n int) aggregate.Rule { return aggregate.NewMultiKrum(0, n) }},
		{"FLAME", func(int) aggregate.Rule { return aggregate.Guard(aggregate.NewFLAME(1)) }},
		{"SignGuard", func(int) aggregate.Rule { return aggregate.Guard(core.NewPlain(1)) }},
	}
	wires := []struct {
		name string
		run  func(t *testing.T, rule func(n int) aggregate.Rule) *asyncfl.Aggregator
	}{
		// A lock-step cohort: the hostile member uploads a dense gradient
		// with a single NaN coordinate every round. The screen's refusal
		// decides its schedule position, so each round closes on the
		// honest five without the round timer.
		{"lockstep", func(t *testing.T, rule func(n int) aggregate.Rule) *asyncfl.Aggregator {
			computes := quadraticCohort(target, honest, 0)
			clean := quadraticGradient(target, 0.05, 99)
			computes = append(computes, func(round int, params []float64) ([]float64, error) {
				g, err := clean(round, params)
				g[3] = math.NaN()
				return g, err
			})
			l, err, _ := runSync(t, asyncfl.Config{
				InitialParams: make([]float64, dim), Rule: rule(honest + 1), LR: 0.1, TargetSteps: rounds,
			}, computes, nil)
			if err != nil {
				t.Fatalf("round timer: %v", err)
			}
			return l.agg
		}},
		// The binary submit body carries float64 bits verbatim: a dense
		// gradient with one literal NaN is a well-formed request, answered
		// 200 with NonFinite set once asyncfl.Submit's screen has refused
		// and counted it — the same path the lock-step gradient above takes.
		{"http-dense", httpHostileWire(target, honest, rounds, func(t *testing.T, evil *AsyncClient, round int) {
			grad := make([]float64, dim)
			grad[3] = math.NaN()
			res, err := evil.Submit(context.Background(), round, 0, grad)
			if err != nil || !res.NonFinite || res.Accepted {
				t.Fatalf("literal-NaN dense body: res=%+v err=%v, want HTTP 200 with NonFinite and not Accepted", res, err)
			}
		})},
		// The other representable attack never reaches Submit: a valid qsgd
		// payload whose finite Scale amplifies to +Inf on decode is refused
		// by the codec, and the handler accounts it.
		{"http-qsgd", httpHostileWire(target, honest, rounds, func(t *testing.T, evil *AsyncClient, round int) {
			if _, err := evil.SubmitEncoded(context.Background(), round, 0, amplifyingQSGD(dim)); err == nil || !strings.Contains(err.Error(), "HTTP 400") {
				t.Fatalf("amplifying qsgd payload: %v, want HTTP 400", err)
			}
		})},
	}
	for _, w := range wires {
		for _, r := range rules {
			t.Run(w.name+"/"+r.name, func(t *testing.T) {
				agg := w.run(t, r.new)
				st := agg.Stats()
				if st.Steps != rounds || !st.Done {
					t.Errorf("%d steps (done=%v), want %d: hostile traffic wedged aggregation", st.Steps, st.Done, rounds)
				}
				if st.NonFiniteRejects != rounds {
					t.Errorf("NonFiniteRejects = %d, want %d (one per hostile submit)", st.NonFiniteRejects, rounds)
				}
				_, params, _ := agg.Model()
				if !tensor.AllFinite(params) {
					t.Fatalf("model went non-finite under hostile traffic: %v", params)
				}
				if d, _ := tensor.Distance(params, target); d > 2 {
					t.Errorf("model ended %v from the optimum: honest traffic did not aggregate", d)
				}
			})
		}
	}
}

// amplifyingQSGD is a well-formed qsgd payload whose finite Scale amplifies
// to +Inf on decode.
func amplifyingQSGD(dim int) codec.Encoded {
	hostile := codec.Encoded{Codec: codec.QSGD, Dim: dim, Scale: 1e308, Levels: 1, Q: make([]int8, dim)}
	for i := range hostile.Q {
		hostile.Q[i] = 127
	}
	return hostile
}

// TestWireRefusalDecidesSchedulePosition: a submit the handler refuses after
// its header parsed — here an amplifying qsgd payload — decides its
// deterministic schedule position, as the screen's refusal in Submit does,
// so the next position applies at once instead of parking behind it.
func TestWireRefusalDecidesSchedulePosition(t *testing.T) {
	const dim = 4
	agg, srv := newAsyncTestServer(t, asyncfl.Config{
		InitialParams: make([]float64, dim), K: 2, LR: 0.1, SessionTTL: -1, Deterministic: true,
	})
	ctx := context.Background()
	evil := &AsyncClient{Base: srv.URL, ID: "evil"}
	if _, err := evil.SubmitEncoded(ctx, 0, 0, amplifyingQSGD(dim)); err == nil || !strings.Contains(err.Error(), "HTTP 400") {
		t.Fatalf("amplifying qsgd payload at seq 0: %v, want HTTP 400", err)
	}
	honest := &AsyncClient{Base: srv.URL, ID: "honest"}
	res, err := honest.Submit(ctx, 0, 1, []float64{1, 2, 3, 4})
	if err != nil || !res.Accepted || !res.Stepped {
		t.Fatalf("dense gradient at seq 1: res=%+v err=%v, want Accepted and the block stepped", res, err)
	}
	if st := agg.Stats(); st.NonFiniteRejects != 1 || st.Steps != 1 {
		t.Errorf("stats = %+v, want one non-finite refusal and one step", st)
	}
}

// httpHostileWire runs TestHostileNaNEndToEnd's rounds as free HTTP
// sessions: each round the hostile client attacks once, then every honest
// client fetches and submits.
func httpHostileWire(target []float64, honest, rounds int, attack func(t *testing.T, evil *AsyncClient, round int)) func(*testing.T, func(n int) aggregate.Rule) *asyncfl.Aggregator {
	return func(t *testing.T, rule func(n int) aggregate.Rule) *asyncfl.Aggregator {
		agg, err := asyncfl.New(asyncfl.Config{
			InitialParams: make([]float64, len(target)), K: honest, Rule: rule(honest), LR: 0.1,
			TargetSteps: int64(rounds), SessionTTL: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(NewAsyncHandler(agg))
		defer srv.Close()
		ctx := context.Background()
		evil := &AsyncClient{Base: srv.URL, ID: "evil"}
		computes := quadraticCohort(target, honest, 0)
		for round := 0; round < rounds; round++ {
			attack(t, evil, round)
			for i, compute := range computes {
				c := &AsyncClient{Base: srv.URL, ID: fmt.Sprintf("h%d", i)}
				model, err := c.Model(ctx)
				if err != nil {
					t.Fatal(err)
				}
				grad, _ := compute(round, model.Params)
				if _, err := c.Submit(ctx, model.Version, 0, grad); err != nil {
					t.Fatal(err)
				}
			}
		}
		return agg
	}
}

// hostileSubmitBody is one malformed or oversized update request.
type hostileSubmitBody struct {
	name        string
	contentType string
	body        []byte
	status      int
}

// topHalf is the topk payload of an ascending gradient that keeps its top
// half, as a client may send: Decode takes any kept count up to the
// dimension from the wire.
func topHalf(grad []float64) codec.Encoded {
	d := len(grad)
	topk := codec.Encoded{Codec: codec.TopK, Dim: d}
	for i := d / 2; i < d; i++ {
		topk.Idx = append(topk.Idx, int32(i))
		topk.Val = append(topk.Val, grad[i])
	}
	return topk
}

// hostileSubmitBodies is the table of frames a dim-coordinate server must
// refuse without buffering an update: TestHostileSubmitBodies posts each,
// FuzzAsyncSubmitBody starts from them.
func hostileSubmitBodies(t testing.TB, dim int) []hostileSubmitBody {
	grad := make([]float64, dim)
	for i := range grad {
		grad[i] = float64(i + 1)
	}
	topk := topHalf(grad)
	dense := submitBody(t, AsyncSubmitRequest{Client: "c", Grad: grad})
	encoded := submitBody(t, AsyncSubmitRequest{Client: "c", Encoded: &topk})
	// header is a submit body up to and including the kind byte.
	header := func(client string, kind byte) []byte {
		b := binary.LittleEndian.AppendUint16([]byte(asyncSubmitTag), uint16(len(client)))
		b = append(b, client...)
		return append(append(b, make([]byte, 16)...), kind)
	}
	// A dense body whose count prefix claims 2³²−1 coordinates and delivers
	// enough bytes for one.
	hugeCount := binary.LittleEndian.AppendUint32(header("c", kindDense), math.MaxUint32)
	hugeCount = append(hugeCount, make([]byte, 40-len(hugeCount))...)
	wrongTag := bytes.Clone(dense)
	wrongTag[3] = 1
	overCap := append(bytes.Clone(dense), make([]byte, int(maxAsyncSubmitBody(dim))+1-len(dense))...)
	payload := dense[len(dense)-4-8*dim:] // the count-prefixed gradient

	var rows []hostileSubmitBody
	for n := 0; n < len(encoded); n++ {
		rows = append(rows, hostileSubmitBody{fmt.Sprintf("topk body cut to %d of %d bytes", n, len(encoded)),
			asyncBinaryType, encoded[:n], http.StatusBadRequest})
	}
	return append(rows, []hostileSubmitBody{
		{"count prefix 2^32-1 on a 40-byte body", asyncBinaryType, hugeCount, http.StatusBadRequest},
		{"dense gradient one coordinate long", asyncBinaryType, submitBody(t, AsyncSubmitRequest{Client: "c", Grad: append(grad, 0)}), http.StatusBadRequest},
		{"trailing byte", asyncBinaryType, append(bytes.Clone(encoded), 0), http.StatusBadRequest},
		{"wrong tag", asyncBinaryType, wrongTag, http.StatusBadRequest},
		{"257-byte client id", asyncBinaryType, append(header(strings.Repeat("x", 257), kindDense), payload...), http.StatusBadRequest},
		{"empty client id", asyncBinaryType, append(header("", kindDense), payload...), http.StatusBadRequest},
		{"unknown payload kind", asyncBinaryType, append(header("c", 2), payload...), http.StatusBadRequest},
		{"JSON content type", "application/json", dense, http.StatusUnsupportedMediaType},
		{"one byte over the dim-derived cap", asyncBinaryType, overCap, http.StatusRequestEntityTooLarge},
	}...)
}

// TestHostileSubmitBodies posts every malformed frame to a live server: each
// is refused with its status, none of them buffers an update or moves the
// model, and the valid dense and topk frames the table is cut from still
// land afterwards. The count-prefix row, and a well-formed dense body four
// times the model's dimension, are also parsed directly to show the refusal
// allocates nothing sized by the count.
func TestHostileSubmitBodies(t *testing.T) {
	const dim = 8
	agg, srv := newAsyncTestServer(t, asyncfl.Config{
		InitialParams: make([]float64, dim), K: 100, LR: 0.1, SessionTTL: -1,
	})
	rows := hostileSubmitBodies(t, dim)
	for _, row := range rows {
		if status, msg := postBody(t, srv.URL+AsyncPathUpdate, row.contentType, row.body); status != row.status {
			t.Errorf("%s: HTTP %d (%s), want %d", row.name, status, msg, row.status)
		}
	}
	// The cap also holds when no Content-Length announces the overrun: a
	// reader of unknown length goes out chunked.
	body := func(name string) []byte {
		i := slices.IndexFunc(rows, func(r hostileSubmitBody) bool { return strings.HasPrefix(r.name, name) })
		return rows[i].body
	}
	overCap := body("one byte over")
	resp, err := http.Post(srv.URL+AsyncPathUpdate, asyncBinaryType, io.MultiReader(bytes.NewReader(overCap)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("chunked body over the cap: HTTP %d, want 413", resp.StatusCode)
	}
	if st := agg.Stats(); st.Arrivals != 0 || st.Buffered != 0 || st.NonFiniteRejects != 0 {
		t.Errorf("malformed frames reached the aggregator: %+v", st)
	}

	// The handler's scratch form refuses a dense count other than its
	// dimension before sizing anything by it; the fresh form would take
	// this body and allocate 32 KiB for it.
	// Each refusal allocates an error value and the numbers its message
	// formats, and a one-byte client id.
	const wide = 1 << 10
	for _, refusal := range []struct {
		name      string
		parse     func([]byte) (AsyncSubmitRequest, error)
		body      []byte
		maxAllocs float64
	}{
		{"a 2^32-1 count prefix", (&asyncScratch{}).parseSubmit, body("count prefix"), 4},
		{"a dense body of 4×dim coordinates", newAsyncScratch(wide).parseSubmit,
			submitBody(t, AsyncSubmitRequest{Client: "c", Grad: make([]float64, 4*wide)}), 5},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := refusal.parse(refusal.body); err == nil {
				t.Fatalf("%s parsed", refusal.name)
			}
		})
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; allocs > refusal.maxAllocs || grew > 64<<10 {
			t.Errorf("refusing %s: %.0f allocations per parse, %d bytes over 101 parses", refusal.name, allocs, grew)
		}
	}

	c := &AsyncClient{Base: srv.URL, ID: "c"}
	grad := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	if res, err := c.Submit(context.Background(), 0, 0, grad); err != nil || !res.Accepted {
		t.Fatalf("valid dense submit after the hostile table: res=%+v err=%v", res, err)
	}
	if res, err := c.SubmitEncoded(context.Background(), 0, 0, topHalf(grad)); err != nil || !res.Accepted {
		t.Fatalf("valid topk submit after the hostile table: res=%+v err=%v", res, err)
	}
}

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
// hostile submit must be refused with HTTP 400 and counted once, every round
// must still step on the honest five, and the model must stay finite. The
// lock-step rows under Mean and Multi-Krum ended with a NaN model while a gob
// round server still aggregated whatever it decoded.
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
		// refused is how many hostile submits the aggregator counts.
		refused int64
	}{
		// A lock-step cohort: the hostile member uploads an uncompressed
		// gradient with a single NaN coordinate. Submit's screen refuses it
		// with HTTP 400, which ends the member, and the refusal decides its
		// schedule position, so round 0 closes on the honest five at once. Round 1 waits for the member's slot until the round
		// timer drops it; the rest close on the honest five.
		{"lockstep", func(t *testing.T, rule func(n int) aggregate.Rule) *asyncfl.Aggregator {
			computes := quadraticCohort(target, honest, 0)
			clean := quadraticGradient(target, 0.05, 99)
			computes = append(computes, func(round int, params []float64) ([]float64, error) {
				g, err := clean(round, params)
				g[3] = math.NaN()
				return g, err
			})
			l, err, errs := runSync(t, asyncfl.Config{
				InitialParams: make([]float64, dim), Rule: rule(honest + 1), LR: 0.1, TargetSteps: rounds,
			}, computes, func(l *lockstep) {
				// Round 0's six uploads, then round 1's five honest ones.
				waitFor(t, "round 1's honest uploads", func() bool { return l.updates.Load() == 2*honest+1 })
				l.expire()
			})
			if err != nil {
				t.Fatalf("round timer: %v", err)
			}
			for i, err := range errs[:honest] {
				if err != nil {
					t.Errorf("honest member %d: %v", i, err)
				}
			}
			if err := errs[honest]; err == nil || !strings.Contains(err.Error(), "HTTP 400") {
				t.Errorf("NaN member ended with %v, want HTTP 400", err)
			}
			if n := l.timeouts.Load(); n != 1 {
				t.Errorf("the round timer ended %d rounds, want 1 (the NaN member's first missing slot)", n)
			}
			return l.agg
		}, 1},
		// An uncompressed gradient with one literal NaN is the identity
		// codec's payload: it decodes, Submit's screen refuses it and the
		// handler answers HTTP 400, as for any other non-finite payload.
		{"http-dense", httpHostileWire(target, honest, rounds, func(t *testing.T, evil *AsyncClient, round int) {
			grad := make([]float64, dim)
			grad[3] = math.NaN()
			if _, err := evil.Submit(context.Background(), round, 0, grad); err == nil || !strings.Contains(err.Error(), "HTTP 400") {
				t.Fatalf("literal-NaN uncompressed gradient: %v, want HTTP 400", err)
			}
		}), rounds},
		// The other representable attack: a valid qsgd payload whose finite
		// Scale amplifies to +Inf on decode, refused by the same screen.
		{"http-qsgd", httpHostileWire(target, honest, rounds, func(t *testing.T, evil *AsyncClient, round int) {
			if _, err := evil.SubmitEncoded(context.Background(), round, 0, amplifyingQSGD(dim)); err == nil || !strings.Contains(err.Error(), "HTTP 400") {
				t.Fatalf("amplifying qsgd payload: %v, want HTTP 400", err)
			}
		}), rounds},
	}
	for _, w := range wires {
		for _, r := range rules {
			t.Run(w.name+"/"+r.name, func(t *testing.T) {
				agg := w.run(t, r.new)
				st := agg.Stats()
				if st.Steps != rounds || !st.Done {
					t.Errorf("%d steps (done=%v), want %d: hostile traffic wedged aggregation", st.Steps, st.Done, rounds)
				}
				if st.NonFiniteRejects != w.refused || st.Rejects != w.refused {
					t.Errorf("NonFiniteRejects = %d, Rejects = %d, want %d each (one per hostile submit)", st.NonFiniteRejects, st.Rejects, w.refused)
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

// TestWireRefusalDecidesSchedulePosition: every payload shape that carries
// or decodes to NaN or ±Inf decodes, reaches Submit and is refused by its
// screen with HTTP 400, counted once in NonFiniteRejects and Rejects. The
// refusal decides its deterministic schedule position at once, as any
// refusal does, so the other position of the block (K = 2) steps it: after
// the refusal when the hostile payload takes seq 0, and on its own arrival
// when the hostile payload came first at seq 1.
func TestWireRefusalDecidesSchedulePosition(t *testing.T) {
	const dim = 4
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		enc  codec.Encoded
		seq  int64 // the hostile payload's position; the honest one takes 1-seq
	}{
		{"identity NaN", codec.Encoded{Codec: codec.Identity, Dim: dim, Dense: []float64{1, nan, 3, 4}}, 0},
		{"identity +Inf", codec.Encoded{Codec: codec.Identity, Dim: dim, Dense: []float64{inf, 0, 0, 0}}, 0},
		{"topk NaN value", codec.Encoded{Codec: codec.TopK, Dim: dim, Idx: []int32{1}, Val: []float64{nan}}, 0},
		{"topk -Inf value", codec.Encoded{Codec: codec.TopK, Dim: dim, Idx: []int32{0, 2}, Val: []float64{1, -inf}}, 0},
		{"qsgd NaN scale", codec.Encoded{Codec: codec.QSGD, Dim: dim, Scale: nan, Levels: 4, Q: []int8{1, -1, 0, 0}}, 0},
		{"qsgd +Inf scale", codec.Encoded{Codec: codec.QSGD, Dim: dim, Scale: inf, Levels: 4, Q: []int8{1, -1, 0, 0}}, 0},
		// A finite Scale that amplifies to +Inf: the attack a sender can
		// build from finite numbers only.
		{"qsgd amplified to +Inf", amplifyingQSGD(dim), 0},
		{"identity NaN at seq 1 before seq 0", codec.Encoded{Codec: codec.Identity, Dim: dim, Dense: []float64{1, nan, 3, 4}}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			agg, srv := newAsyncTestServer(t, asyncfl.Config{
				InitialParams: make([]float64, dim), K: 2, LR: 0.1, SessionTTL: -1, Deterministic: true,
			})
			ctx := context.Background()
			evil := &AsyncClient{Base: srv.URL, ID: "evil"}
			if _, err := evil.SubmitEncoded(ctx, 0, tc.seq, tc.enc); err == nil || !strings.Contains(err.Error(), "HTTP 400") {
				t.Fatalf("hostile payload at seq %d: %v, want HTTP 400", tc.seq, err)
			}
			if st := agg.Stats(); st.NonFiniteRejects != 1 || st.Rejects != 1 || st.Steps != 0 {
				t.Fatalf("after the refusal: stats = %+v, want one non-finite refusal in Rejects and no step", st)
			}
			honest := &AsyncClient{Base: srv.URL, ID: "honest"}
			// Seq 1 closes the block itself and reports the step. Seq 0
			// after a refused seq 1 steps the block through the drain, which
			// reports that step on seq 1's discarded result, not on seq 0's
			// reply: a known fault, so Stats.Steps is the check there.
			res, err := honest.Submit(ctx, 0, 1-tc.seq, []float64{1, 2, 3, 4})
			if err != nil || !res.Accepted || (tc.seq == 0 && !res.Stepped) {
				t.Fatalf("gradient at seq %d: res=%+v err=%v, want Accepted (and Stepped at seq 1)", 1-tc.seq, res, err)
			}
			if st := agg.Stats(); st.NonFiniteRejects != 1 || st.Rejects != 1 || st.Steps != 1 {
				t.Errorf("stats = %+v, want one non-finite refusal and the block stepped", st)
			}
		})
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
		h, err := NewAsyncCodecHandler(agg, nil)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(h)
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
	dense := submitBody(t, AsyncSubmitRequest{Client: "c", Encoded: identity(grad)})
	encoded := submitBody(t, AsyncSubmitRequest{Client: "c", Encoded: topHalf(grad)})
	// header is a submit body up to and including its schedule position,
	// opened by tag.
	header := func(tag, client string) []byte {
		b := binary.LittleEndian.AppendUint16([]byte(tag), uint16(len(client)))
		b = append(b, client...)
		return append(b, make([]byte, 16)...)
	}
	payload := dense[len(header(asyncSubmitTag, "c")):] // codec name onwards
	// An identity body whose Dense count prefix claims 2³²−1 coordinates
	// and delivers enough bytes for one.
	hugeCount := append(header(asyncSubmitTag, "c"), byte(len(codec.Identity)))
	hugeCount = binary.LittleEndian.AppendUint64(append(hugeCount, codec.Identity...), uint64(dim))
	hugeCount = append(binary.LittleEndian.AppendUint32(hugeCount, math.MaxUint32), make([]byte, 12)...)
	// The gradient in the layout before every submit was a codec payload:
	// a kind byte 0, then the count-prefixed floats.
	oldLayout := appendFloat64s(append(header("SGU\x02", "c"), 0), grad)
	wrongTag := bytes.Clone(dense)
	wrongTag[3] = 1
	overCap := append(bytes.Clone(dense), make([]byte, int(maxAsyncSubmitBody(dim))+1-len(dense))...)

	var rows []hostileSubmitBody
	for n := 0; n < len(encoded); n++ {
		rows = append(rows, hostileSubmitBody{fmt.Sprintf("topk body cut to %d of %d bytes", n, len(encoded)),
			asyncBinaryType, encoded[:n], http.StatusBadRequest})
	}
	return append(rows, []hostileSubmitBody{
		{fmt.Sprintf("count prefix 2^32-1 on a %d-byte body", len(hugeCount)), asyncBinaryType, hugeCount, http.StatusBadRequest},
		{"identity payload one coordinate long", asyncBinaryType, submitBody(t, AsyncSubmitRequest{Client: "c", Encoded: identity(append(grad, 0))}), http.StatusBadRequest},
		{"identity payload one coordinate short of its Dim", asyncBinaryType,
			submitBody(t, AsyncSubmitRequest{Client: "c", Encoded: codec.Encoded{Codec: codec.Identity, Dim: dim, Dense: grad[:dim-1]}}), http.StatusBadRequest},
		{"trailing byte", asyncBinaryType, append(bytes.Clone(encoded), 0), http.StatusBadRequest},
		{"wrong tag", asyncBinaryType, wrongTag, http.StatusBadRequest},
		{"old tag SGU\\x02 on the layout with a kind byte", asyncBinaryType, oldLayout, http.StatusBadRequest},
		{"257-byte client id", asyncBinaryType, append(header(asyncSubmitTag, strings.Repeat("x", 257)), payload...), http.StatusBadRequest},
		{"empty client id", asyncBinaryType, append(header(asyncSubmitTag, ""), payload...), http.StatusBadRequest},
		{"JSON content type", "application/json", dense, http.StatusUnsupportedMediaType},
		{"one byte over the dim-derived cap", asyncBinaryType, overCap, http.StatusRequestEntityTooLarge},
	}...)
}

// TestHostileSubmitBodies posts every malformed frame to a live server: each
// is refused with its status, none of them buffers an update or moves the
// model, and the valid dense and topk frames the table is cut from still
// land afterwards. The count-prefix row, and a well-formed identity body four
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

	// The handler's scratch form refuses a Dense count above its dimension
	// before sizing anything by it; the fresh form would take this body and
	// allocate 32 KiB for it.
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
		{"an identity body of 4×dim coordinates", newAsyncScratch(wide).parseSubmit,
			submitBody(t, AsyncSubmitRequest{Client: "c", Encoded: identity(make([]float64, 4*wide))}), 5},
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
		t.Fatalf("valid uncompressed submit after the hostile table: res=%+v err=%v", res, err)
	}
	if res, err := c.SubmitEncoded(context.Background(), 0, 0, topHalf(grad)); err != nil || !res.Accepted {
		t.Fatalf("valid topk submit after the hostile table: res=%+v err=%v", res, err)
	}
}

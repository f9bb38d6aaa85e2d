package transport

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"github.com/signguard/signguard/internal/codec"
)

// builtinPayloads is one codec.Encoded per builtin codec over a gradient
// with every kind of finite value a codec special-cases: identity and
// signsgd as their Encode emits them, topk keeping four coordinates and
// qsgd on eight levels, as a client may send (Decode reads the kept count
// and the levels from the payload).
func builtinPayloads(t testing.TB) []codec.Encoded {
	grad := []float64{1.5, -2, 0, math.Copysign(0, -1), 1e-300, -1e150, 0.25, 7, -7, 3, 0.125}
	dense, err := codec.IdentityCodec{}.Encode(grad, nil)
	if err != nil {
		t.Fatal(err)
	}
	sign, err := codec.SignSGDCodec{}.Encode(grad, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := make([]int8, len(grad))
	q[5] = -8
	return []codec.Encoded{
		dense,
		{Codec: codec.TopK, Dim: len(grad), Idx: []int32{5, 7, 8, 9}, Val: []float64{-1e150, 7, -7, 3}},
		{Codec: codec.QSGD, Dim: len(grad), Scale: 1e150, Levels: 8, Q: q},
		sign,
	}
}

// retained is the bytes of slice and string storage a parsed submit holds.
func retained(req AsyncSubmitRequest) int {
	e := &req.Encoded
	return len(req.Client) + len(e.Codec) + 8*cap(e.Dense) + 4*cap(e.Idx) + 8*cap(e.Val) + cap(e.Q) + cap(e.Sign)
}

// TestAsyncWireRoundTrip: what the four builtin codecs emit, and an
// identity payload with non-finite coordinates, come back from the wire
// exactly.
func TestAsyncWireRoundTrip(t *testing.T) {
	reqs := []AsyncSubmitRequest{
		{Client: "non-finite", Version: 7, Seq: -3, Encoded: identity([]float64{1, math.Inf(-1), math.MaxFloat64, 0})},
		{Client: string(bytes.Repeat([]byte{0xff}, maxAsyncClientID)), Version: math.MaxInt32, Seq: math.MaxInt64},
	}
	for _, enc := range builtinPayloads(t) {
		reqs = append(reqs, AsyncSubmitRequest{Client: "c-" + enc.Codec, Version: 1, Encoded: enc})
	}
	for _, want := range reqs {
		got, err := (&asyncScratch{}).parseSubmit(submitBody(t, want))
		if err != nil {
			t.Fatalf("%s: %v", want.Client, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: parsed %+v, sent %+v", want.Client, got, want)
		}
	}

	model := AsyncModelResponse{Version: 12, Done: true, Codecs: codec.Builtin().Names(), Params: []float64{0.5, -0.5, 1e-9}}
	body, err := appendAsyncModel(nil, &model)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := parseAsyncModel(body); err != nil || !reflect.DeepEqual(got, model) {
		t.Errorf("model: parsed %+v (%v), sent %+v", got, err, model)
	}
}

// FuzzAsyncSubmitBody: parsing arbitrary bytes never panics, a body that
// parses holds no more slice storage than the body was long, and the
// framing is canonical — re-encoding what was parsed gives the body back,
// so parse(append(x)) == x for everything append can emit. The handler's
// scratch form, reused from body to body, only adds refusals: whatever it
// takes, it reads exactly as the fresh form does.
func FuzzAsyncSubmitBody(f *testing.F) {
	scratch := newAsyncScratch(8)
	f.Add(submitBody(f, AsyncSubmitRequest{Client: "c", Version: 3, Encoded: identity([]float64{1, math.NaN(), -2})}))
	for _, enc := range builtinPayloads(f) {
		f.Add(submitBody(f, AsyncSubmitRequest{Client: "c", Version: 1, Seq: 2, Encoded: enc}))
	}
	for _, row := range hostileSubmitBodies(f, 8) {
		f.Add(row.body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := (&asyncScratch{}).parseSubmit(body)
		inScratch, scratchErr := scratch.parseSubmit(body)
		if err != nil {
			if scratchErr == nil {
				t.Fatalf("scratch form took a body the fresh form refuses (%v)", err)
			}
			return
		}
		// Compare the canonical re-encodings, which carry every float's bits:
		// reflect.DeepEqual calls two identical NaN gradients different.
		if scratchErr == nil && !bytes.Equal(submitBody(t, inScratch), submitBody(t, req)) {
			t.Fatalf("scratch form read %+v, fresh form %+v", inScratch, req)
		}
		if got := retained(req); got > len(body) {
			t.Fatalf("parse of a %d-byte body retains %d bytes", len(body), got)
		}
		again, err := appendAsyncSubmit(nil, &req)
		if err != nil || !bytes.Equal(again, body) {
			t.Fatalf("re-encoding differs (err %v):\n got %x\nwant %x", err, again, body)
		}
	})
}

// FuzzAsyncModelBody is FuzzAsyncSubmitBody for the model-fetch body, the
// one a client parses.
func FuzzAsyncModelBody(f *testing.F) {
	for _, m := range []AsyncModelResponse{
		{},
		{Version: 4, Codecs: codec.Builtin().Names(), Params: []float64{1, -1, math.Inf(1)}},
		{Version: -1, Done: true, Codecs: []string{""}, Params: make([]float64, 64)},
	} {
		body, err := appendAsyncModel(nil, &m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
		f.Add(body[:len(body)/2])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		m, err := parseAsyncModel(body)
		if err != nil {
			return
		}
		// A codec name costs a byte of body and a string header of memory,
		// in a slice that append may have doubled.
		got := 8*cap(m.Params) + 16*cap(m.Codecs)
		for _, name := range m.Codecs {
			got += len(name)
		}
		if got > 32*len(body) {
			t.Fatalf("parse of a %d-byte body retains %d bytes", len(body), got)
		}
		again, err := appendAsyncModel(nil, &m)
		if err != nil || !bytes.Equal(again, body) {
			t.Fatalf("re-encoding differs (err %v):\n got %x\nwant %x", err, again, body)
		}
	})
}

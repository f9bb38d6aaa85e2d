package codec

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// The wire boundary must never emit a non-finite value without an error:
// JSON cannot carry a literal NaN, so hostile payloads arrive either as
// non-finite fields smuggled through a non-JSON path or as finite fields
// that amplify to ±Inf on decode.
func TestDecodeRefusesNonFinitePayloads(t *testing.T) {
	reg := Builtin()
	cases := map[string]Encoded{
		"identity-nan": {Codec: Identity, Dim: 3, Dense: []float64{1, math.NaN(), 3}},
		"identity-inf": {Codec: Identity, Dim: 2, Dense: []float64{math.Inf(1), 0}},
		"topk-nan-val": {Codec: TopK, Dim: 4, Idx: []int32{1}, Val: []float64{math.NaN()}},
		"topk-inf-val": {Codec: TopK, Dim: 4, Idx: []int32{0, 2}, Val: []float64{1, math.Inf(-1)}},
		"qsgd-nan-scale": {
			Codec: QSGD, Dim: 2, Scale: math.NaN(), Levels: 4, Q: []int8{1, -1},
		},
		"qsgd-inf-scale": {
			Codec: QSGD, Dim: 2, Scale: math.Inf(1), Levels: 4, Q: []int8{1, -1},
		},
		// A finite Scale so large that Scale·Q/Levels overflows float64 —
		// the amplification a hostile client can actually ship as JSON.
		"qsgd-amplified-inf": {
			Codec: QSGD, Dim: 2, Scale: 1e308, Levels: 1, Q: []int8{127, 1},
		},
	}
	for name, e := range cases {
		if out, err := reg.Decode(e); err == nil {
			t.Errorf("%s: decode accepted a hostile payload: %v", name, out)
		}
	}
}

// The encode side refuses non-finite inputs for the payload-carrying
// codecs instead of shipping poison: topk would keep a NaN value verbatim
// and qsgd would stamp a NaN norm as the Scale of every coordinate.
func TestEncodeRefusesNonFiniteGradients(t *testing.T) {
	hostile := []float64{1, math.NaN(), 3, 4}
	if _, err := (TopKCodec{K: 2}).Encode(hostile, nil); err == nil {
		t.Error("topk encoded a NaN gradient without error")
	}
	if _, err := (QSGDCodec{}).Encode(hostile, rand.New(rand.NewSource(1))); err == nil {
		t.Error("qsgd encoded a NaN gradient without error")
	}
	inf := []float64{math.Inf(1), 0}
	if _, err := (QSGDCodec{}).Encode(inf, rand.New(rand.NewSource(1))); err == nil {
		t.Error("qsgd encoded an Inf gradient without error")
	}
}

// A non-finite coordinate is refused wherever it sits. The sort-based
// topk only looked at the coordinates that landed in the kept set, so a
// NaN outside it both shipped silently and — NaN compares false either
// way — left the selection order undefined.
func TestTopKEncodeRefusesNonFiniteOutsideKeptSet(t *testing.T) {
	for name, bad := range map[string]float64{"nan": math.NaN(), "+inf": math.Inf(1), "-inf": math.Inf(-1)} {
		for pos := 0; pos < 4; pos++ {
			g := []float64{9, 1, 1, 1}
			g[pos] = bad
			_, err := (TopKCodec{K: 1}).Encode(g, nil)
			if !errors.Is(err, ErrNonFinite) {
				t.Errorf("%s at %d of %v: err = %v, want ErrNonFinite", name, pos, g, err)
				continue
			}
			if want := fmt.Sprintf("coordinate %d", pos); !strings.Contains(err.Error(), want) {
				t.Errorf("%s at %d: error %q does not name the %s", name, pos, err, want)
			}
		}
	}
}

// SignSGD carries only sign bits, so any input — non-finite included —
// decodes to finite ±1; it needs no refusal path.
func TestSignSGDNonFiniteInputStaysFinite(t *testing.T) {
	g := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -2}
	enc, err := (SignSGDCodec{}).Encode(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := (SignSGDCodec{}).Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range dec {
		if v != 1 && v != -1 {
			t.Errorf("coord %d decoded to %v, want ±1", i, v)
		}
	}
}

// Decode errors must identify themselves as codec errors (the transport
// surfaces them verbatim to the submitting client).
func TestDecodeErrorsNameTheCodec(t *testing.T) {
	reg := Builtin()
	_, err := reg.Decode(Encoded{Codec: QSGD, Dim: 1, Scale: math.NaN(), Levels: 4, Q: []int8{1}})
	if err == nil || !strings.Contains(err.Error(), "qsgd") {
		t.Errorf("qsgd decode error does not name the codec: %v", err)
	}
}

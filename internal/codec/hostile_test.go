package codec

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// The encode side refuses non-finite inputs for the payload-carrying
// codecs instead of shipping poison: topk would keep a NaN value verbatim
// and qsgd would stamp a NaN norm as the Scale of every coordinate.
func TestEncodeRefusesNonFiniteGradients(t *testing.T) {
	hostile := []float64{1, math.NaN(), 3, 4}
	if _, err := encodeTopK(hostile, 2); err == nil {
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
			_, err := encodeTopK(g, 1)
			if err == nil {
				t.Errorf("%s at %d of %v: encoded without an error", name, pos, g)
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
	_, err := reg.Decode(Encoded{Codec: QSGD, Dim: 1, Scale: 1, Levels: 0, Q: []int8{1}})
	if err == nil || !strings.Contains(err.Error(), "qsgd") {
		t.Errorf("qsgd decode error does not name the codec: %v", err)
	}
}

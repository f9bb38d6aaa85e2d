package codec_test

import (
	"testing"

	"github.com/signguard/signguard/internal/codec"
	"github.com/signguard/signguard/internal/conformance"
)

// TestCodecConformance runs the registry-wide contract over every builtin
// codec: the declared round-trip bound holds on Gaussian vectors, corrupted
// variants of the codec's own wire form are rejected, a dirty decode
// destination changes no bit and no error class and never crosses a wire,
// a codec that is not Stochastic neither draws nor needs an rng, and
// hyperparameter declarations survive the CLI syntax with undeclared names
// rejected.
func TestCodecConformance(t *testing.T) {
	reg := codec.Builtin()
	for _, name := range reg.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			if err := conformance.CheckCodecRoundTrip(reg, name, 17); err != nil {
				t.Errorf("round trip: %v", err)
			}
			if err := conformance.CheckCodecMalformedRejection(reg, name, 19); err != nil {
				t.Errorf("malformed payloads: %v", err)
			}
			if err := conformance.CheckCodecDestination(reg, name, 17); err != nil {
				t.Errorf("decode destination: %v", err)
			}
			if err := conformance.CheckCodecRandomness(reg, name, 23); err != nil {
				t.Errorf("randomness declaration: %v", err)
			}
			if err := conformance.CheckCodecHyperDeclaration(reg, name); err != nil {
				t.Errorf("hyper declaration: %v", err)
			}
		})
	}
}

// TestConformanceCatchesFalseLosslessClaim is the test of the test: a codec
// that declares Lossless but quantizes must fail the round-trip check, and
// a codec declaring no bound at all must fail too.
func TestConformanceCatchesFalseLosslessClaim(t *testing.T) {
	reg := codec.Builtin()
	if err := reg.Register(codec.Spec{Name: "liar", Lossless: true, Build: func(codec.Params) (codec.Codec, error) {
		return codec.SignSGDCodec{}, nil
	}}); err != nil {
		t.Fatal(err)
	}
	if err := conformance.CheckCodecRoundTrip(reg, "liar", 17); err == nil {
		t.Error("lossy codec passed with a Lossless declaration")
	}

	if err := reg.Register(codec.Spec{Name: "unbounded", Build: func(codec.Params) (codec.Codec, error) {
		return codec.IdentityCodec{}, nil
	}}); err != nil {
		t.Fatal(err)
	}
	if err := conformance.CheckCodecRoundTrip(reg, "unbounded", 17); err == nil {
		t.Error("codec with no declared bound passed the round-trip check")
	}
}

// deterministicQSGD draws from its rng like QSGD but declares that it does
// not.
type deterministicQSGD struct{ codec.QSGDCodec }

func (deterministicQSGD) Stochastic() bool { return false }

// TestConformanceCatchesUndeclaredRandomness is the test of the test for
// the randomness declaration: a codec that draws but declares itself not
// Stochastic must fail, and the genuine QSGD — which declares it — passes.
func TestConformanceCatchesUndeclaredRandomness(t *testing.T) {
	reg := codec.Builtin()
	for name, c := range map[string]codec.Codec{"liar": deterministicQSGD{}, "honest": codec.QSGDCodec{}} {
		if err := reg.Register(codec.Spec{Name: name, MinCosine: 0.5, Build: func(codec.Params) (codec.Codec, error) {
			return c, nil
		}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := conformance.CheckCodecRandomness(reg, "liar", 23); err == nil {
		t.Error("a codec that draws from its rng passed with Stochastic false")
	}
	if err := conformance.CheckCodecRandomness(reg, "honest", 23); err != nil {
		t.Errorf("qsgd, which declares its draws: %v", err)
	}
}

// TestConformanceCatchesWeakBound is the test of the test for the lossy
// direction: a declared MinCosine above what the codec achieves must fail.
func TestConformanceCatchesWeakBound(t *testing.T) {
	reg := codec.Builtin()
	if err := reg.Register(codec.Spec{Name: "overclaim", MinCosine: 0.999999, Build: func(codec.Params) (codec.Codec, error) {
		return codec.SignSGDCodec{}, nil
	}}); err != nil {
		t.Fatal(err)
	}
	if err := conformance.CheckCodecRoundTrip(reg, "overclaim", 17); err == nil {
		t.Error("sign codec passed a near-1 cosine bound")
	}
}

// Package codec is the gradient-compression stage of the round pipeline:
// every submitted gradient is encoded into a wire form and decoded back
// before the defense sees it, so the server-side aggregation rule operates
// on exactly what crossed the network.
//
// Four codecs ship with the reproduction: identity (the uncompressed
// default — a lossless round trip, byte-identical to an engine without a
// codec stage), topk (magnitude sparsification that keeps the k
// largest-|g_i| coordinates bit-exactly), qsgd (QSGD-style stochastic
// quantization to a signed integer grid, unbiased in expectation), and
// signsgd (the 1-bit signSGD wire format). Codecs are pure values: Encode
// draws randomness only from the *rand.Rand handed in by the caller, and
// only a codec that declares itself Stochastic (qsgd) draws at all — the
// engine hands that one the codec stage's own derived stream and encodes
// the others concurrently without one — so a run is deterministic for any
// worker count.
//
// A Registry is an internal/catalog table like internal/defense's: named
// constructors, each at one configuration, consumed by the campaign grid,
// the experiments harness and the CLIs.
package codec

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// ErrNonFinite marks encode/decode refusals caused by NaN or ±Inf values —
// either carried verbatim in a payload or produced by amplification during
// decode. Receivers (the async transport) match it with errors.Is to count
// hostile traffic separately from malformed payloads.
var ErrNonFinite = errors.New("non-finite value")

// Canonical codec names: the registry keys, the Encoded.Codec wire tags,
// and the names the async protocol advertises.
const (
	Identity = "identity"
	TopK     = "topk"
	QSGD     = "qsgd"
	SignSGD  = "signsgd"
)

// Encoded is the wire form of one gradient. Exactly one payload group is
// populated, keyed by Codec: Dense (identity), Idx/Val (topk),
// Scale/Levels/Q (qsgd), or Sign (signsgd). The async HTTP protocol frames
// the fields in declaration order (transport/async_wire.go); Bytes answers
// what a tight binary framing of the populated group alone would cost,
// which is the quantity the bytes-shipped accounting reports.
type Encoded struct {
	// Codec is the canonical name of the codec that produced the payload
	// (Identity, TopK, QSGD or SignSGD) — the decode dispatch key.
	Codec string
	// Dim is the gradient dimension the payload decodes back to.
	Dim int

	// Dense is the identity payload: the gradient verbatim.
	Dense []float64 `json:",omitempty"`

	// Idx/Val are the topk payload: the kept coordinate indices (strictly
	// ascending) and their exact values.
	Idx []int32   `json:",omitempty"`
	Val []float64 `json:",omitempty"`

	// Scale/Levels/Q are the qsgd payload: g_i decodes to Scale·Q_i/Levels.
	Scale  float64 `json:",omitempty"`
	Levels int     `json:",omitempty"`
	Q      []int8  `json:",omitempty"`

	// Sign is the signsgd payload: bit i (LSB-first within each byte) is
	// math.Signbit(g_i).
	Sign []byte `json:",omitempty"`

	// dst is the receiver's decode destination (see WithDst). It is
	// unexported, so no wire format — gob, JSON, the binary bodies — can
	// carry or set it.
	dst []float64
}

// WithDst returns e with buf as its decode destination. TopK, QSGD and
// SignSGD decode into buf[:Dim], overwriting every value, when cap(buf) >=
// Dim, and into a fresh vector otherwise; Identity returns Dense as always.
// A nil buf — the only other state — is the fresh-vector decode.
func (e Encoded) WithDst(buf []float64) Encoded {
	e.dst = buf
	return e
}

// decodeDst returns the zeroed vector a decode writes its Dim values into:
// the destination set by WithDst when it can hold them, a fresh vector
// otherwise.
func (e Encoded) decodeDst() []float64 {
	if e.dst == nil || cap(e.dst) < e.Dim {
		return make([]float64, e.Dim)
	}
	out := e.dst[:e.Dim]
	clear(out)
	return out
}

// encodedHeaderBytes is the fixed framing cost charged per encoded
// gradient: a codec tag, the dimension, and per-payload scalars fit
// comfortably in 16 bytes of a tight binary encoding.
const encodedHeaderBytes = 16

// Bytes returns the wire size of the payload under a tight binary framing
// (float64 = 8B, index = 4B, quantized level = 1B, sign = 1 bit) plus a
// small fixed header. The frame the async HTTP protocol ships adds a count
// prefix per unused field; accounting charges this format-independent cost
// so codec comparisons measure the codec, not the serialization.
func (e Encoded) Bytes() int {
	n := encodedHeaderBytes
	n += 8 * len(e.Dense)
	n += 4*len(e.Idx) + 8*len(e.Val)
	n += len(e.Q)
	n += len(e.Sign)
	return n
}

// finite reports whether v is neither NaN nor ±Inf.
func finite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// checkDim rejects a payload declaring a negative dimension before any
// make([]float64, Dim) happens. Encoded values arrive from untrusted
// clients over the async wire, so a decode allocation must never be sized
// by a nonsensical attacker-controlled Dim (receivers additionally bound
// Dim against the model dimension they expect before decoding).
func checkDim(e Encoded) error {
	if e.Dim < 0 {
		return fmt.Errorf("codec: %s payload declares negative dim %d", e.Codec, e.Dim)
	}
	return nil
}

// Codec encodes gradients into their wire form and back. Implementations
// are stateless values, safe for concurrent use; all randomness comes from
// the rng passed to Encode, and a codec whose Stochastic method reports
// false draws none — pass it nil.
//
// Ownership: Encode never retains grad and its payload never aliases it, so
// the caller owns the payload it gets back. The slice Decode returns may
// alias the payload's own arrays (identity returns Dense itself) or the
// destination the caller set with Encoded.WithDst (the other builtin codecs
// decode into it when it holds Dim values, overwriting all of them); the
// caller owns all three and must copy before mutating one if it still needs
// another. A decode without a destination — every wire decode, since no
// format carries it — returns a fresh vector or the payload's own array.
type Codec interface {
	// Name identifies the codec instance, including its configuration
	// where it matters (e.g. "qsgd(4)").
	Name() string
	// Encode compresses grad into its wire form. Implementations must not
	// retain or mutate grad, and must draw randomness only from rng.
	Encode(grad []float64, rng *rand.Rand) (Encoded, error)
	// Stochastic reports whether Encode draws from rng. False is a promise:
	// Encode(g, nil) is valid and bit-identical to Encode(g, rng) for every
	// rng, and leaves rng untouched — so a caller may encode many gradients
	// at once without sharing a stream. It is a method of the interface, not
	// an optional one, so a wrapper that embeds a Codec forwards it.
	Stochastic() bool
	// Decode reconstructs a gradient of length Encoded.Dim from the wire
	// form. It must not depend on the instance's configuration — a
	// receiver decodes payloads from any sender configuration. The result
	// may alias e's payload arrays or its destination (see the ownership
	// rule above).
	Decode(e Encoded) ([]float64, error)
}

// IdentityCodec is the lossless default: the wire form is the gradient
// itself. Decode(Encode(g)) is bit-identical to g, so a pipeline with the
// identity codec reproduces a codec-free engine byte for byte.
type IdentityCodec struct{}

// Name implements Codec.
func (IdentityCodec) Name() string { return Identity }

// Encode implements Codec. It never draws from rng.
func (IdentityCodec) Encode(grad []float64, _ *rand.Rand) (Encoded, error) {
	return Encoded{Codec: Identity, Dim: len(grad), Dense: append([]float64(nil), grad...)}, nil
}

// Stochastic implements Codec: identity draws no randomness.
func (IdentityCodec) Stochastic() bool { return false }

// Decode implements Codec: it validates the payload in place and returns
// e.Dense itself, not a copy. A payload carrying NaN or ±Inf values is
// refused: decoded gradients feed norms, distances and clustering
// directly, so the wire boundary must never emit a non-finite value
// without an error.
func (IdentityCodec) Decode(e Encoded) ([]float64, error) {
	if len(e.Dense) != e.Dim {
		return nil, fmt.Errorf("codec: identity payload has %d values for dim %d", len(e.Dense), e.Dim)
	}
	for i, v := range e.Dense {
		if !finite(v) {
			return nil, fmt.Errorf("codec: identity payload value %d: %w", i, ErrNonFinite)
		}
	}
	return e.Dense, nil
}

// TopKCodec keeps the d/10 largest-magnitude coordinates (at least one)
// exactly and drops the rest — magnitude sparsification. Ties on |g_i|
// break toward the lower index, so encoding is fully deterministic (it
// never draws from rng).
type TopKCodec struct{}

// Name implements Codec.
func (TopKCodec) Name() string { return TopK }

// topKKeep is the kept-coordinate count of a d-dimensional gradient.
func topKKeep(d int) int { return max(d/10, 1) }

// Stochastic implements Codec: the selection draws no randomness.
func (TopKCodec) Stochastic() bool { return false }

// The top-k selection ranks coordinates by magBits(g_i): the bits of
// |g_i|, which for finite values sort exactly as the magnitudes do (and
// equal exactly when they are equal, ±0 included). It resolves them one
// radixBits-wide digit at a time, most significant first: the 11 exponent
// bits, then the 52 mantissa bits in digits of 11, 11, 11, 11 and 8.
const (
	radixBits = 11
	signBit   = 1 << 63
)

// magBits returns the bits of |v|.
func magBits(v float64) uint64 { return math.Float64bits(v) &^ signBit }

// Encode implements Codec: encodeTopK at topKKeep(d).
func (TopKCodec) Encode(grad []float64, _ *rand.Rand) (Encoded, error) {
	return encodeTopK(grad, topKKeep(len(grad)))
}

// encodeTopK keeps the k largest-magnitude coordinates of grad, for k in
// [1, len(grad)]. It finds the top-k boundary by an MSD radix select
// over magBits(g_i), with no scratch beyond one histogram on the
// stack: the first pass histograms the exponents and refuses the gradient
// on its first NaN or ±Inf coordinate — wherever it sits, kept or not —
// and each later pass histograms the next digit of the boundary bucket
// only, until that bucket is kept whole or is one magnitude τ. One
// ascending-index scan then keeps every coordinate above the boundary and
// the first ones on it until k are kept: Idx comes out ascending, and equal
// magnitudes keep the lower index. Whatever the values, that is at most
// seven passes over grad, and Idx and Val are the only allocations.
func encodeTopK(grad []float64, k int) (Encoded, error) {
	d := len(grad)
	if d == 0 {
		return Encoded{Codec: TopK}, nil
	}
	var hist [1 << radixBits]int32
	for _, v := range grad {
		hist[math.Float64bits(v)>>52&(1<<radixBits-1)]++
	}
	if hist[len(hist)-1] > 0 { // the all-ones exponent: NaN or ±Inf
		for i, v := range grad {
			if !finite(v) {
				return Encoded{}, fmt.Errorf("codec: topk cannot encode coordinate %d: %w", i, ErrNonFinite)
			}
		}
	}
	// The k largest are the coordinates whose magBits>>shift exceeds prefix,
	// plus ties of the bucket coordinates equal to it. Refine until ties is
	// the whole bucket or, at shift 0, the bucket is one magnitude, of which
	// the tie rule keeps the first ties by index.
	shift := uint(52)
	prefix, ties, bucket := boundary(hist[:], k)
	for ties < bucket && shift > 0 {
		width := min(radixBits, shift)
		shift -= width
		clear(hist[:])
		for _, v := range grad {
			if b := magBits(v); b>>(shift+width) == prefix {
				// The second mask is a no-op that drops the bounds check.
				hist[b>>shift&(1<<width-1)&(1<<radixBits-1)]++
			}
		}
		var digit uint64
		digit, ties, bucket = boundary(hist[:1<<width], ties)
		prefix = prefix<<width | digit
	}
	e := Encoded{Codec: TopK, Dim: d, Idx: make([]int32, k), Val: make([]float64, k)}
	n := 0
	for i, v := range grad {
		switch p := magBits(v) >> shift; {
		case p > prefix:
		case p == prefix && ties > 0:
			ties--
		default:
			continue
		}
		e.Idx[n], e.Val[n] = int32(i), v
		if n++; n == k {
			break
		}
	}
	return e, nil
}

// boundary walks a digit histogram from the top bucket down to the one
// holding the need-th largest value. It returns that bucket's digit, how
// many of its coordinates are still needed, and how many it holds.
func boundary(hist []int32, need int) (digit uint64, ties, bucket int) {
	for j := len(hist) - 1; ; j-- {
		c := int(hist[j])
		if need <= c {
			return uint64(j), need, c
		}
		need -= c
	}
}

// Decode implements Codec: the kept values scatter into a zeroed vector —
// the destination when one is set (see WithDst).
func (TopKCodec) Decode(e Encoded) ([]float64, error) {
	if err := checkDim(e); err != nil {
		return nil, err
	}
	if len(e.Idx) != len(e.Val) {
		return nil, fmt.Errorf("codec: topk payload has %d indices for %d values", len(e.Idx), len(e.Val))
	}
	if len(e.Idx) > e.Dim {
		return nil, fmt.Errorf("codec: topk payload has %d indices for dim %d", len(e.Idx), e.Dim)
	}
	out := e.decodeDst()
	for i, idx := range e.Idx {
		if idx < 0 || int(idx) >= e.Dim {
			return nil, fmt.Errorf("codec: topk index %d out of dim %d", idx, e.Dim)
		}
		if !finite(e.Val[i]) {
			return nil, fmt.Errorf("codec: topk payload value %d: %w", i, ErrNonFinite)
		}
		out[idx] = e.Val[i]
	}
	return out, nil
}

// QSGDCodec quantizes each coordinate onto a signed grid of qsgdLevels
// steps scaled by the gradient's L2 norm, with stochastic rounding — the
// QSGD scheme. The rounding randomness makes the decoded gradient an
// unbiased estimate of the input: E[Decode(Encode(g))] = g.
type QSGDCodec struct{}

// qsgdLevels is the quantization level count s the encoder uses. Decode
// reads the count from the payload instead.
const qsgdLevels = 4

// Name implements Codec.
func (QSGDCodec) Name() string { return fmt.Sprintf("qsgd(%d)", qsgdLevels) }

// Stochastic implements Codec: the rounding draws one variate per
// coordinate, in coordinate order.
func (QSGDCodec) Stochastic() bool { return true }

// Encode implements Codec: encodeQSGD at qsgdLevels.
func (QSGDCodec) Encode(grad []float64, rng *rand.Rand) (Encoded, error) {
	return encodeQSGD(grad, rng, qsgdLevels)
}

// encodeQSGD quantizes grad onto s levels, for s in [1, 127] so one signed
// byte holds a level. The stochastic rounding draws one uniform variate
// per coordinate from rng, which is required.
func encodeQSGD(grad []float64, rng *rand.Rand, s int) (Encoded, error) {
	if rng == nil {
		return Encoded{}, fmt.Errorf("codec: qsgd requires an RNG for stochastic rounding")
	}
	var norm float64
	for _, v := range grad {
		norm += v * v
	}
	norm = math.Sqrt(norm)
	if !finite(norm) {
		// A NaN or overflowing norm would ship as the payload Scale and
		// poison every decoded coordinate downstream.
		return Encoded{}, fmt.Errorf("codec: qsgd cannot encode a gradient whose norm is a %w", ErrNonFinite)
	}
	e := Encoded{Codec: QSGD, Dim: len(grad), Scale: norm, Levels: s, Q: make([]int8, len(grad))}
	if norm == 0 {
		return e, nil
	}
	for i, v := range grad {
		r := math.Abs(v) / norm * float64(s) // in [0, s]
		l := math.Floor(r)
		if rng.Float64() < r-l {
			l++
		}
		q := int8(l)
		if math.Signbit(v) {
			q = -q
		}
		e.Q[i] = q
	}
	return e, nil
}

// Decode implements Codec: g_i = Scale·Q_i/Levels. A payload whose Scale
// is non-finite — or finite but so large the product overflows — is
// refused: amplification through a huge Scale is how a hostile client
// builds ±Inf out of a payload in which every number is finite.
func (QSGDCodec) Decode(e Encoded) ([]float64, error) {
	if len(e.Q) != e.Dim {
		return nil, fmt.Errorf("codec: qsgd payload has %d levels for dim %d", len(e.Q), e.Dim)
	}
	if e.Levels < 1 {
		return nil, fmt.Errorf("codec: qsgd payload with %d levels", e.Levels)
	}
	if !finite(e.Scale) {
		return nil, fmt.Errorf("codec: qsgd payload scale is a %w", ErrNonFinite)
	}
	out := e.decodeDst()
	if e.Scale == 0 {
		return out, nil
	}
	inv := e.Scale / float64(e.Levels)
	for i, q := range e.Q {
		v := float64(q) * inv
		if !finite(v) {
			return nil, fmt.Errorf("codec: qsgd payload amplifies to a %w at %d", ErrNonFinite, i)
		}
		out[i] = v
	}
	return out, nil
}

// SignSGDCodec ships one bit per coordinate: the sign. Decode maps a set
// bit (math.Signbit true, i.e. negative or -0) to -1 and a clear bit to +1
// — the signSGD wire format. Encoding is deterministic.
type SignSGDCodec struct{}

// Name implements Codec.
func (SignSGDCodec) Name() string { return SignSGD }

// Stochastic implements Codec: the sign bits draw no randomness.
func (SignSGDCodec) Stochastic() bool { return false }

// Encode implements Codec. It never draws from rng.
func (SignSGDCodec) Encode(grad []float64, _ *rand.Rand) (Encoded, error) {
	e := Encoded{Codec: SignSGD, Dim: len(grad), Sign: make([]byte, (len(grad)+7)/8)}
	for i, v := range grad {
		if math.Signbit(v) {
			e.Sign[i/8] |= 1 << (i % 8)
		}
	}
	return e, nil
}

// Decode implements Codec.
func (SignSGDCodec) Decode(e Encoded) ([]float64, error) {
	if err := checkDim(e); err != nil {
		return nil, err
	}
	if want := (e.Dim + 7) / 8; len(e.Sign) != want {
		return nil, fmt.Errorf("codec: signsgd payload has %d sign bytes for dim %d (want %d)", len(e.Sign), e.Dim, want)
	}
	out := e.decodeDst()
	for i := range out {
		if e.Sign[i/8]&(1<<(i%8)) != 0 {
			out[i] = -1
		} else {
			out[i] = 1
		}
	}
	return out, nil
}

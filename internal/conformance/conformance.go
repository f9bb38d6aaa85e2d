// Package conformance is the registry-wide contract checker of the defense
// and codec catalogs. Every registered defense must produce byte-identical
// aggregates for any worker count, survive hostile (non-finite) input
// buffers with a finite aggregate or an error, and select in ascending
// order; every registered codec must honor its declared round-trip bound
// (bit-exactness for lossless codecs, a minimum preserved cosine for lossy
// ones), reject malformed wire payloads, and draw no randomness unless it
// declares itself Stochastic. The ownership checks (ownership.go) hold
// every defense and attack to keeping none of its inputs, and every codec
// to decoding into a reused destination exactly as into a fresh vector.
//
// The checks are plain error-returning functions rather than test helpers,
// so the per-registry conformance tests can assert both directions: that
// every shipped entry passes, and — on deliberately broken registries —
// that a violation is actually caught (the test of the test).
package conformance

import (
	"fmt"
	"math"
	"reflect"

	"github.com/signguard/signguard/internal/aggregate"
	"github.com/signguard/signguard/internal/codec"
	"github.com/signguard/signguard/internal/defense"
	"github.com/signguard/signguard/internal/stats"
	"github.com/signguard/signguard/internal/tensor"
)

// WorkerCounts are the worker settings every defense must agree across:
// sequential, the smallest parallel split, and a count that does not divide
// typical cohort sizes evenly.
var WorkerCounts = []int{1, 2, 7}

// Cohort is the gradient cohort geometry the defense checks run at.
const (
	CohortN   = 12
	CohortF   = 2
	CohortDim = 40
)

// buildRule constructs a fresh instance of the named defense and installs a
// reference gradient when the rule learns server-side.
func buildRule(reg *defense.Registry, name string, seed int64, server []float64) (aggregate.Rule, error) {
	rule, err := reg.Build(name, defense.Params{N: CohortN, F: CohortF, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", name, err)
	}
	if sl, ok := aggregate.Unwrap(rule).(aggregate.ServerLearner); ok {
		sl.SetServerGradient(server)
	}
	return rule, nil
}

// cohort returns a deterministic Gaussian gradient cohort.
func cohort(seed int64) [][]float64 {
	rng := tensor.NewRNG(seed)
	grads := make([][]float64, CohortN)
	for i := range grads {
		grads[i] = tensor.RandNormal(rng, CohortDim, 0, 1)
	}
	return grads
}

// CheckDefenseWorkerDeterminism asserts the determinism contract for one
// registered defense: a fresh instance per worker count, aggregating the
// same cohort, must return bit-identical gradients (compared through
// Float64bits, so -0 vs +0 and NaN payload differences count) and identical
// selections.
func CheckDefenseWorkerDeterminism(reg *defense.Registry, name string, seed int64) error {
	grads := cohort(seed)
	server := tensor.RandNormal(tensor.NewRNG(seed+1), CohortDim, 0, 1)

	var ref *aggregate.Result
	for wi, workers := range WorkerCounts {
		rule, err := buildRule(reg, name, seed, server)
		if err != nil {
			return err
		}
		if ws, ok := rule.(aggregate.WorkersSetter); ok {
			ws.SetWorkers(workers)
		}
		res, err := rule.Aggregate(tensor.CloneAll(grads))
		if err != nil {
			return fmt.Errorf("%s with %d workers: %w", name, workers, err)
		}
		if wi == 0 {
			ref = res
			continue
		}
		if err := diffResults(ref, res); err != nil {
			return fmt.Errorf("%s with %d workers differs from %d workers: %w", name, workers, WorkerCounts[0], err)
		}
	}
	return nil
}

// HostileBuffers returns named gradient cohorts carrying non-finite values
// in the shapes attacks actually use: a single poisoned coordinate, a fully
// poisoned vector, ±Inf spikes, a majority of sparsely poisoned vectors,
// and an entirely non-finite cohort.
func HostileBuffers(seed int64) map[string][][]float64 {
	out := map[string][][]float64{}
	mk := func(name string, poison func(grads [][]float64)) {
		grads := cohort(seed)
		poison(grads)
		out[name] = grads
	}
	mk("one-nan-coord", func(g [][]float64) { g[0][3] = math.NaN() })
	mk("full-nan-vector", func(g [][]float64) {
		for j := range g[1] {
			g[1][j] = math.NaN()
		}
	})
	mk("inf-spikes", func(g [][]float64) {
		g[0][0] = math.Inf(1)
		g[2][7] = math.Inf(-1)
	})
	mk("majority-sparse-nan", func(g [][]float64) {
		for i := 0; i < (len(g)+2)/2; i++ {
			g[i][i%len(g[i])] = math.NaN()
		}
	})
	mk("all-inf", func(g [][]float64) {
		for i := range g {
			for j := range g[i] {
				g[i][j] = math.Inf(1)
			}
		}
	})
	return out
}

// eachAccepted builds a fresh instance of the named defense per buffer,
// aggregates it and hands check every result the rule returned; a refused
// buffer is skipped, as refusing satisfies every buffer contract.
func eachAccepted(reg *defense.Registry, name string, seed int64, buffers map[string][][]float64, check func(buffer string, n int, res *aggregate.Result) error) error {
	server := tensor.RandNormal(tensor.NewRNG(seed+1), CohortDim, 0, 1)
	for buffer, grads := range buffers {
		rule, err := buildRule(reg, name, seed, server)
		if err != nil {
			return err
		}
		if res, err := rule.Aggregate(grads); err == nil {
			if err := check(buffer, len(grads), res); err != nil {
				return err
			}
		}
	}
	return nil
}

// CheckDefenseHostileInputs asserts the finite-or-error contract: whatever
// a defense does with a non-finite cohort, it must either return an error
// or a fully finite aggregate — never silently emit NaN/±Inf.
func CheckDefenseHostileInputs(reg *defense.Registry, name string, seed int64) error {
	return eachAccepted(reg, name, seed, HostileBuffers(seed), func(buffer string, _ int, res *aggregate.Result) error {
		if !tensor.AllFinite(res.Gradient) {
			return fmt.Errorf("%s emitted a non-finite aggregate on %s without an error", name, buffer)
		}
		return nil
	})
}

// CheckDefenseSelection asserts the selection shape attack.Observe counts:
// a rule's Selected is nil (no per-client selection) or strictly ascending
// within [0, n), on the clean cohort and on every HostileBuffers entry the
// rule accepts. An empty non-nil selection (a rule that kept no one) is
// allowed.
func CheckDefenseSelection(reg *defense.Registry, name string, seed int64) error {
	buffers := HostileBuffers(seed)
	buffers["clean"] = cohort(seed)
	return eachAccepted(reg, name, seed, buffers, func(buffer string, n int, res *aggregate.Result) error {
		if err := SelectionShape(res.Selected, n); err != nil {
			return fmt.Errorf("%s on %s: %w", name, buffer, err)
		}
		return nil
	})
}

// SelectionShape returns an error unless selected is nil or strictly
// ascending within [0, n).
func SelectionShape(selected []int, n int) error {
	for k, i := range selected {
		if i < 0 || i >= n || k > 0 && i <= selected[k-1] {
			return fmt.Errorf("selection %v is not strictly ascending within [0, %d)", selected, n)
		}
	}
	return nil
}

// CodecDim is the vector dimension the codec round-trip checks run at.
const CodecDim = 64

// CheckCodecRoundTrip asserts a codec's declared round-trip bound on dense
// Gaussian vectors: a Lossless codec must reproduce the input bit for bit;
// a lossy codec must preserve at least its declared MinCosine similarity.
// A codec declaring neither bound fails — every registered codec must state
// what its round trip guarantees.
func CheckCodecRoundTrip(reg *codec.Registry, name string, seed int64) error {
	s, err := reg.Lookup(name)
	if err != nil {
		return err
	}
	if !s.Lossless && s.MinCosine <= 0 {
		return fmt.Errorf("codec %s declares no round-trip bound (Lossless or MinCosine)", name)
	}
	c, grads, encs, err := codecPayloads(reg, name, seed)
	if err != nil {
		return err
	}
	for trial, g := range grads {
		dec, err := c.Decode(encs[trial])
		if err != nil {
			return fmt.Errorf("codec %s decode (trial %d): %w", name, trial, err)
		}
		if len(dec) != len(g) {
			return fmt.Errorf("codec %s round trip changed dimension %d → %d", name, len(g), len(dec))
		}
		if !tensor.AllFinite(dec) {
			return fmt.Errorf("codec %s decoded a non-finite gradient (trial %d)", name, trial)
		}
		if s.Lossless {
			if err := diffVectors(g, dec); err != nil {
				return fmt.Errorf("codec %s declares Lossless but its round trip changed a value (trial %d): %w", name, trial, err)
			}
			continue
		}
		cos, err := stats.CosineSimilarity(g, dec)
		if err != nil {
			return fmt.Errorf("codec %s (trial %d): %w", name, trial, err)
		}
		if cos < s.MinCosine {
			return fmt.Errorf("codec %s round trip preserved cosine %.4f, below the declared %.4f (trial %d)",
				name, cos, s.MinCosine, trial)
		}
	}
	return nil
}

// codecPayloads builds the named codec and encodes the eight dense
// Gaussian vectors of CodecDim values the codec checks run on.
func codecPayloads(reg *codec.Registry, name string, seed int64) (codec.Codec, [][]float64, []codec.Encoded, error) {
	c, err := reg.Build(name, codec.Params{})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("build codec %s: %w", name, err)
	}
	rng := tensor.NewRNG(seed)
	encRng := tensor.NewRNG(seed + 1)
	grads := make([][]float64, 8)
	encs := make([]codec.Encoded, len(grads))
	for trial := range grads {
		grads[trial] = tensor.RandNormal(rng, CodecDim, 0, 1)
		enc, err := c.Encode(grads[trial], encRng)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("codec %s encode (trial %d): %w", name, trial, err)
		}
		encs[trial] = enc
	}
	return c, grads, encs, nil
}

// CheckCodecRandomness holds a codec to its Stochastic declaration, which
// is what lets a simulated round encode its slots in parallel. A codec
// declaring false must leave a seeded rng handed to Encode where it found
// it — its next Int63 equals a fresh same-seeded stream's — and must encode
// the same payload with a nil rng. A codec declaring true may draw, and is
// not checked.
func CheckCodecRandomness(reg *codec.Registry, name string, seed int64) error {
	c, err := reg.Build(name, codec.Params{})
	if err != nil {
		return fmt.Errorf("build codec %s: %w", name, err)
	}
	if c.Stochastic() {
		return nil
	}
	rng := tensor.NewRNG(seed)
	for trial := 0; trial < 8; trial++ {
		g := tensor.RandNormal(rng, CodecDim, 0, 1)
		seeded := tensor.NewRNG(seed + 1)
		want, err := c.Encode(g, seeded)
		if err != nil {
			return fmt.Errorf("codec %s encode (trial %d): %w", name, trial, err)
		}
		if seeded.Int63() != tensor.NewRNG(seed+1).Int63() {
			return fmt.Errorf("codec %s declares itself not Stochastic but drew from its rng (trial %d)", name, trial)
		}
		got, err := c.Encode(g, nil)
		if err != nil {
			return fmt.Errorf("codec %s declares itself not Stochastic but fails without an rng (trial %d): %w", name, trial, err)
		}
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("codec %s declares itself not Stochastic but encodes differently without an rng (trial %d)", name, trial)
		}
	}
	return nil
}

// MalformedPayloads derives corrupted wire payloads from a valid encoding,
// mutating whichever payload group the codec actually uses: a negative
// dimension, truncated arrays, out-of-range sparse indices and a zero level
// count. Every returned payload must fail to decode. A non-finite value is
// not a format error: it decodes, and the receiver's screen refuses it.
func MalformedPayloads(enc codec.Encoded) []codec.Encoded {
	var bad []codec.Encoded
	add := func(mutate func(e *codec.Encoded)) {
		e := enc
		e.Dense = append([]float64(nil), enc.Dense...)
		e.Idx = append([]int32(nil), enc.Idx...)
		e.Val = append([]float64(nil), enc.Val...)
		e.Q = append([]int8(nil), enc.Q...)
		e.Sign = append([]byte(nil), enc.Sign...)
		mutate(&e)
		bad = append(bad, e)
	}
	add(func(e *codec.Encoded) { e.Dim = -4 })
	if len(enc.Dense) > 0 {
		add(func(e *codec.Encoded) { e.Dense = e.Dense[:len(e.Dense)-1] })
	}
	if len(enc.Idx) > 0 {
		add(func(e *codec.Encoded) { e.Idx[0] = int32(e.Dim + 5) })
		add(func(e *codec.Encoded) { e.Val = e.Val[:len(e.Val)-1] })
	}
	if len(enc.Q) > 0 {
		add(func(e *codec.Encoded) { e.Q = e.Q[:len(e.Q)-1] })
		add(func(e *codec.Encoded) { e.Levels = 0 })
	}
	if len(enc.Sign) > 0 {
		add(func(e *codec.Encoded) { e.Sign = e.Sign[:len(e.Sign)-1] })
	}
	return bad
}

// CheckCodecMalformedRejection asserts that a codec refuses every corrupted
// variant of its own wire form with an error instead of fabricating a
// gradient.
func CheckCodecMalformedRejection(reg *codec.Registry, name string, seed int64) error {
	c, err := reg.Build(name, codec.Params{})
	if err != nil {
		return fmt.Errorf("build codec %s: %w", name, err)
	}
	g := tensor.RandNormal(tensor.NewRNG(seed), CodecDim, 0, 1)
	enc, err := c.Encode(g, tensor.NewRNG(seed+1))
	if err != nil {
		return fmt.Errorf("codec %s encode: %w", name, err)
	}
	for i, e := range MalformedPayloads(enc) {
		if _, err := c.Decode(e); err == nil {
			return fmt.Errorf("codec %s decoded malformed payload %d without an error", name, i)
		}
	}
	return nil
}

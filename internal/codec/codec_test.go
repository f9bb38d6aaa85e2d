package codec

import (
	"encoding/json"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"
)

func testGrad(rng *rand.Rand, d int) []float64 {
	g := make([]float64, d)
	for i := range g {
		g[i] = rng.NormFloat64()
	}
	return g
}

func TestIdentityRoundTripBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := testGrad(rng, 257)
	g[3] = math.Copysign(0, -1) // -0 must survive too
	e, err := IdentityCodec{}.Encode(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := IdentityCodec{}.Decode(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(g) {
		t.Fatalf("dim %d, want %d", len(out), len(g))
	}
	for i := range g {
		if math.Float64bits(out[i]) != math.Float64bits(g[i]) {
			t.Fatalf("coord %d: %x != %x", i, math.Float64bits(out[i]), math.Float64bits(g[i]))
		}
	}
	if e.Bytes() <= 8*len(g) {
		t.Errorf("identity Bytes() %d should include header over %d payload bytes", e.Bytes(), 8*len(g))
	}
}

// TestTopKKeepsLargestExact checks the satellite property: topk preserves
// the k largest-magnitude coordinates bit-exactly and zeroes the rest.
func TestTopKKeepsLargestExact(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := testGrad(rng, 400)
	const k = 37
	e, err := encodeTopK(g, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Idx) != k || len(e.Val) != k {
		t.Fatalf("kept %d/%d coords, want %d", len(e.Idx), len(e.Val), k)
	}
	out, err := TopKCodec{}.Decode(e)
	if err != nil {
		t.Fatal(err)
	}

	// Reference selection: indices sorted by magnitude descending.
	order := make([]int, len(g))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return math.Abs(g[order[a]]) > math.Abs(g[order[b]]) })
	want := map[int]bool{}
	for _, i := range order[:k] {
		want[i] = true
	}
	for i := range g {
		if want[i] {
			if math.Float64bits(out[i]) != math.Float64bits(g[i]) {
				t.Errorf("kept coord %d not bit-exact: %v != %v", i, out[i], g[i])
			}
		} else if out[i] != 0 {
			t.Errorf("dropped coord %d decoded to %v, want 0", i, out[i])
		}
	}
	if e.Bytes() >= 8*len(g) {
		t.Errorf("topk Bytes() %d not smaller than dense %d", e.Bytes(), 8*len(g))
	}
}

func TestTopKKeepsTenthAndTies(t *testing.T) {
	// k = d/10, at least 1.
	e, err := TopKCodec{}.Encode(make([]float64, 95), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Idx) != 9 {
		t.Errorf("topk on d=95 kept %d, want 9", len(e.Idx))
	}
	e, err = TopKCodec{}.Encode([]float64{1, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Idx) != 1 {
		t.Errorf("topk on d=2 kept %d, want 1", len(e.Idx))
	}
	// Ties break toward the lower index.
	e, err = encodeTopK([]float64{3, -3, 3, 3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if e.Idx[0] != 0 || e.Idx[1] != 1 {
		t.Errorf("tie-break kept %v, want [0 1]", e.Idx)
	}
}

// TestQSGDUnbiased checks the satellite property: averaged over many
// seeds, the decoded gradient converges to the input (stochastic rounding
// is unbiased).
func TestQSGDUnbiased(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := testGrad(rng, 24)
	c := QSGDCodec{}
	const trials = 4000
	mean := make([]float64, len(g))
	for s := 0; s < trials; s++ {
		e, err := c.Encode(g, rand.New(rand.NewSource(int64(s))))
		if err != nil {
			t.Fatal(err)
		}
		out, err := c.Decode(e)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			mean[i] += v / trials
		}
	}
	// Per-coordinate quantization noise is bounded by scale/levels; the
	// empirical mean of `trials` draws should be well inside that.
	var norm float64
	for _, v := range g {
		norm += v * v
	}
	tol := 4 * math.Sqrt(norm) / qsgdLevels / math.Sqrt(trials)
	for i := range g {
		if d := math.Abs(mean[i] - g[i]); d > tol {
			t.Errorf("coord %d: empirical mean %v vs %v (|Δ|=%g > %g)", i, mean[i], g[i], d, tol)
		}
	}
}

func TestQSGDLevelsBoundAndZeroGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := testGrad(rng, 100)
	e, err := encodeQSGD(g, rng, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range e.Q {
		if q < -7 || q > 7 {
			t.Fatalf("level %d at coord %d out of ±7", q, i)
		}
	}
	// Zero gradient: zero scale, all-zero levels, decodes to zeros.
	e, err = QSGDCodec{}.Encode(make([]float64, 5), rng)
	if err != nil {
		t.Fatal(err)
	}
	out, err := QSGDCodec{}.Decode(e)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range out {
		if v != 0 {
			t.Fatalf("zero gradient decoded to %v", out)
		}
	}
	// Missing RNG is an error, not a silent deterministic fallback.
	if _, err := (QSGDCodec{}).Encode(g, nil); err == nil {
		t.Error("qsgd Encode accepted a nil RNG")
	}
}

// TestSignSGDMatchesSignbit checks the satellite property: decode equals
// the math.Signbit mapping (+1 for positive and +0, -1 for negative and -0).
func TestSignSGDMatchesSignbit(t *testing.T) {
	g := []float64{1.5, -2.25, 0, math.Copysign(0, -1), -1e-300, 7, -7, 0.25, -0.25}
	e, err := SignSGDCodec{}.Encode(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := SignSGDCodec{}.Decode(e)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range g {
		want := 1.0
		if math.Signbit(v) {
			want = -1.0
		}
		if out[i] != want {
			t.Errorf("coord %d (%v): decoded %v, want %v", i, v, out[i], want)
		}
	}
	if want := (len(g) + 7) / 8; len(e.Sign) != want {
		t.Errorf("sign payload %d bytes, want %d", len(e.Sign), want)
	}
}

// TestEncodeDeterministic: same gradient + same seed → bit-identical wire
// payload, for every builtin codec.
func TestEncodeDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := testGrad(rng, 333)
	for _, name := range Builtin().Names() {
		c, err := Builtin().Build(name, Params{})
		if err != nil {
			t.Fatal(err)
		}
		e1, err := c.Encode(g, rand.New(rand.NewSource(99)))
		if err != nil {
			t.Fatal(err)
		}
		e2, err := c.Encode(g, rand.New(rand.NewSource(99)))
		if err != nil {
			t.Fatal(err)
		}
		b1, _ := json.Marshal(e1)
		b2, _ := json.Marshal(e2)
		if string(b1) != string(b2) {
			t.Errorf("%s: encode not deterministic under a fixed seed", name)
		}
	}
}

// TestStochasticDeclarations: only qsgd draws randomness, so every other
// builtin declares that it does not and a simulated round encodes it on
// its workers.
func TestStochasticDeclarations(t *testing.T) {
	for _, name := range Builtin().Names() {
		c, err := Builtin().Build(name, Params{})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := c.Stochastic(), name == QSGD; got != want {
			t.Errorf("%s: Stochastic() = %v, want %v", name, got, want)
		}
	}
}

func TestRegistry(t *testing.T) {
	r := Builtin()
	want := []string{Identity, TopK, QSGD, SignSGD}
	names := r.Names()
	if len(names) != len(want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("Names() = %v, want %v", names, want)
		}
	}

	// Each entry builds at its one configuration.
	c, err := r.Build(TopK, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "topk" {
		t.Errorf("built %q", c.Name())
	}
	q, err := r.Build(QSGD, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if q.Name() != "qsgd(4)" {
		t.Errorf("built %q", q.Name())
	}

	// Registry.Decode dispatches on the payload tag.
	rng := rand.New(rand.NewSource(6))
	g := testGrad(rng, 50)
	enc, err := c.Encode(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := r.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(g) {
		t.Fatalf("Decode dim %d, want %d", len(out), len(g))
	}
	if _, err := r.Decode(Encoded{Codec: "nope"}); err == nil {
		t.Error("Decode accepted an unknown payload tag")
	}
}

// TestDecodeRejectsCorruptPayloads: a truncated or inconsistent wire
// payload must error, never panic or silently mis-decode.
func TestDecodeRejectsCorruptPayloads(t *testing.T) {
	for _, e := range []Encoded{
		{Codec: Identity, Dim: 4, Dense: []float64{1}},
		{Codec: TopK, Dim: 4, Idx: []int32{0, 1}, Val: []float64{1}},
		{Codec: TopK, Dim: 4, Idx: []int32{9}, Val: []float64{1}},
		{Codec: TopK, Dim: 4, Idx: []int32{-1}, Val: []float64{1}},
		// Negative or undersized declared dimensions must be refused before
		// any Dim-sized allocation: Encoded is untrusted wire input, and a
		// Dim of -1 slips past signsgd's (Dim+7)/8 length check into a
		// panicking makeslice without the explicit guard.
		{Codec: TopK, Dim: -1},
		{Codec: SignSGD, Dim: -1},
		{Codec: TopK, Dim: 2, Idx: []int32{0, 1, 1}, Val: []float64{1, 2, 3}},
		{Codec: QSGD, Dim: 4, Scale: 1, Levels: 4, Q: []int8{1}},
		{Codec: QSGD, Dim: 1, Scale: 1, Levels: 0, Q: []int8{1}},
		{Codec: SignSGD, Dim: 100, Sign: []byte{0}},
	} {
		if _, err := Builtin().Decode(e); err == nil {
			t.Errorf("corrupt %s payload accepted: %+v", e.Codec, e)
		}
	}
}

// referenceTopK is the selection TopKCodec.Encode shipped before it became
// a linear-time select: a full sort of the index permutation by (|g| descending,
// index ascending), the first k kept and re-sorted by index. It survives
// as the oracle the selection must match bit for bit on finite input.
func referenceTopK(grad []float64, k int) Encoded {
	if len(grad) == 0 {
		return Encoded{Codec: TopK}
	}
	order := make([]int, len(grad))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ai, bi := order[a], order[b]
		if ma, mb := math.Abs(grad[ai]), math.Abs(grad[bi]); ma != mb {
			return ma > mb
		}
		return ai < bi
	})
	kept := append([]int(nil), order[:k]...)
	sort.Ints(kept)
	e := Encoded{Codec: TopK, Dim: len(grad), Idx: make([]int32, k), Val: make([]float64, k)}
	for i, idx := range kept {
		e.Idx[i] = int32(idx)
		e.Val[i] = grad[idx]
	}
	return e
}

// fillGrad returns the d-coordinate gradient whose i-th value is f(i).
func fillGrad(d int, f func(i int) float64) []float64 {
	g := make([]float64, d)
	for i := range g {
		g[i] = f(i)
	}
	return g
}

// checkMatchesReference clamps k to [1, d], encodes grad with encodeTopK
// at k and reports any bit of the payload that differs from referenceTopK's.
func checkMatchesReference(t *testing.T, grad []float64, k int) {
	t.Helper()
	k = min(max(k, 1), len(grad))
	got, err := encodeTopK(grad, k)
	if err != nil {
		t.Fatalf("d=%d k=%d: %v", len(grad), k, err)
	}
	want := referenceTopK(grad, k)
	if got.Codec != want.Codec || got.Dim != want.Dim || got.Bytes() != want.Bytes() ||
		len(got.Idx) != len(want.Idx) || len(got.Val) != len(want.Val) {
		t.Fatalf("d=%d k=%d: payload shape (%s dim %d, %d idx, %d val, %d B), want (%s dim %d, %d idx, %d val, %d B)",
			len(grad), k, got.Codec, got.Dim, len(got.Idx), len(got.Val), got.Bytes(),
			want.Codec, want.Dim, len(want.Idx), len(want.Val), want.Bytes())
	}
	for i := range want.Idx {
		if got.Idx[i] != want.Idx[i] || math.Float64bits(got.Val[i]) != math.Float64bits(want.Val[i]) {
			t.Fatalf("d=%d k=%d: kept entry %d is (%d, %x), want (%d, %x)", len(grad), k, i,
				got.Idx[i], math.Float64bits(got.Val[i]), want.Idx[i], math.Float64bits(want.Val[i]))
		}
	}
}

// TestTopKEncodeMatchesReference: the selection-based Encode produces the
// sort-based payload bit for bit — over random, tie-heavy, constant,
// pre-sorted, single-exponent and bit-range-extreme inputs, at every k
// regime.
func TestTopKEncodeMatchesReference(t *testing.T) {
	shapes := map[string]func(rng *rand.Rand, d int) []float64{
		"random": testGrad,
		"sparse": func(rng *rand.Rand, d int) []float64 { // mostly ±0
			g := make([]float64, d)
			for i := range g {
				switch rng.Intn(10) {
				case 0:
					g[i] = rng.NormFloat64()
				case 1:
					g[i] = math.Copysign(0, -1)
				}
			}
			return g
		},
		"repeated": func(rng *rand.Rand, d int) []float64 { // five magnitudes, ±v pairs
			g := make([]float64, d)
			for i := range g {
				g[i] = float64(rng.Intn(5)) * 0.25
				if rng.Intn(2) == 0 {
					g[i] = -g[i]
				}
			}
			return g
		},
		"all-equal": func(_ *rand.Rand, d int) []float64 { return fillGrad(d, func(int) float64 { return -1.5 }) },
		"all-zero":  func(_ *rand.Rand, d int) []float64 { return make([]float64, d) },
		"ascending": func(_ *rand.Rand, d int) []float64 {
			return fillGrad(d, func(i int) float64 { return float64(i) - float64(d)/2 })
		},
		"descending": func(_ *rand.Rand, d int) []float64 {
			return fillGrad(d, func(i int) float64 { return float64(d - i) })
		},
		"one-exponent": func(rng *rand.Rand, d int) []float64 {
			return fillGrad(d, func(int) float64 { return 1 + rng.Float64() })
		},
		"bit-extremes": func(rng *rand.Rand, d int) []float64 {
			return fillGrad(d, func(int) float64 { return bitExtremes(rng.Intn(1 << 20)) })
		},
	}
	for name, shape := range shapes {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			for _, d := range []int{1, 2, 7, 4550} {
				for _, k := range []int{1, d / 10, d - 1, d, 0} {
					for rep := 0; rep < 3; rep++ {
						checkMatchesReference(t, shape(rng, d), k)
					}
				}
			}
		})
	}
}

// TestTopKEncodeAllocations: the radix select's only scratch is a
// histogram on the stack, so Encode allocates the payload's Idx and Val
// and nothing else.
func TestTopKEncodeAllocations(t *testing.T) {
	g := testGrad(rand.New(rand.NewSource(12)), 4550)
	c := TopKCodec{}
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := c.Encode(g, nil); err != nil {
			t.Fatal(err)
		}
	}); allocs > 2 {
		t.Errorf("TopKCodec.Encode allocates %.0f times per call, want at most 2 (Idx and Val)", allocs)
	}
}

// TestTopKDecodeAllocations: with a destination that holds Dim values,
// Decode writes into it and allocates nothing.
func TestTopKDecodeAllocations(t *testing.T) {
	g := testGrad(rand.New(rand.NewSource(12)), 4550)
	enc, err := TopKCodec{}.Encode(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	enc = enc.WithDst(make([]float64, len(g)))
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := (TopKCodec{}).Decode(enc); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("TopKCodec.Decode into a warm destination allocates %.0f times per call, want 0", allocs)
	}
}

// TestTopKEncodeConcurrent: a simulated round's workers, campaign workers
// and load-test clients encode at once through the one stateless value, at
// different dimensions; every payload must still be the reference's (run
// under -race by `make race`).
func TestTopKEncodeConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for rep := 0; rep < 50; rep++ {
				g := testGrad(rng, 1+rng.Intn(600))
				want := referenceTopK(g, topKKeep(len(g)))
				got, err := TopKCodec{}.Encode(g, nil)
				if err != nil || !slices.Equal(got.Idx, want.Idx) || !slices.Equal(got.Val, want.Val) {
					t.Errorf("worker %d rep %d: concurrent encode diverged from the reference (err %v)", w, rep, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestTopKEncodePathologicalInputs: orders aimed at a pivot rule (organ
// pipe, valley, sawtooth, pre-sorted), value sets that keep the radix
// select's boundary bucket full to the last digit (constant, two-valued,
// every magnitude in one exponent) and the extremes of the bit range
// (subnormals, ±0, MaxFloat64) must cost a small multiple of a random
// gradient at d = 1M, not a quadratic blow-up. A client chooses its
// gradient, so Encode's worst case is an attack surface of every campaign
// worker and load generator.
func TestTopKEncodePathologicalInputs(t *testing.T) {
	if testing.Short() {
		t.Skip("encodes 1M-coordinate gradients")
	}
	const d = 1_000_000
	encode := func(g []float64) time.Duration { // best of three
		best := time.Duration(math.MaxInt64)
		var e Encoded
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			var err error
			e, err = (TopKCodec{}).Encode(g, nil)
			best = min(best, time.Since(start))
			if err != nil {
				t.Fatal(err)
			}
		}
		checkKeptSetIsTopK(t, g, e)
		return best
	}
	base := encode(testGrad(rand.New(rand.NewSource(13)), d))
	shapes := map[string]func(i int) float64{
		"organ-pipe": func(i int) float64 { return float64(min(i, d-1-i)) },
		"valley":     func(i int) float64 { return float64(max(i, d-1-i)) },
		"sawtooth":   func(i int) float64 { return float64(i % 1024) },
		"ascending":  func(i int) float64 { return float64(i) },
		"descending": func(i int) float64 { return float64(d - i) },
		"all-equal":  func(int) float64 { return 2.5 },
		"two-valued": func(i int) float64 { return float64(i & 1) },
		"one-exponent": func(i int) float64 { // [1, 2): only the mantissa ranks
			return 1 + float64(i*7919%d)/d
		},
		"bit-extremes": bitExtremes,
	}
	for name, shape := range shapes {
		if got := encode(fillGrad(d, shape)); got > 10*base {
			t.Errorf("%s: encode took %v against %v for a random gradient", name, got, base)
		}
	}
}

// bitExtremes is coordinate i of a gradient built from the ends of the
// float64 bit range: ±0, the smallest and largest subnormals, the smallest
// normal, ±MaxFloat64 and the values just below it, with the low mantissa
// bits varied so that every radix digit sees more than one value.
func bitExtremes(i int) float64 {
	v := [...]float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64,
		math.Float64frombits(1<<52 - 1), math.Float64frombits(1 << 52),
		math.MaxFloat64, -math.MaxFloat64, math.Nextafter(math.MaxFloat64, 0),
	}[i%8]
	if b := math.Float64bits(v); b&^signBit >= 1024 {
		v = math.Float64frombits(b - uint64(i%1024))
	}
	return v
}

// checkKeptSetIsTopK verifies a large encode without the oracle's full
// sort: k entries in ascending index order, values verbatim, and no
// dropped coordinate outranking a kept one under (|g| descending, index
// ascending).
func checkKeptSetIsTopK(t *testing.T, grad []float64, e Encoded) {
	t.Helper()
	if want := topKKeep(len(grad)); len(e.Idx) != want || len(e.Val) != want {
		t.Fatalf("kept %d/%d coordinates, want %d", len(e.Idx), len(e.Val), want)
	}
	kept := make([]bool, len(grad))
	weakest, weakestIdx := math.Inf(1), -1 // lowest-ranked kept coordinate
	for i, idx := range e.Idx {
		if i > 0 && idx <= e.Idx[i-1] {
			t.Fatalf("Idx not strictly ascending at %d", i)
		}
		if math.Float64bits(e.Val[i]) != math.Float64bits(grad[idx]) {
			t.Fatalf("kept value %d is not coordinate %d verbatim", i, idx)
		}
		kept[idx] = true
		if a := math.Abs(grad[idx]); a <= weakest {
			weakest, weakestIdx = a, int(idx)
		}
	}
	for i, v := range grad {
		if a := math.Abs(v); !kept[i] && (a > weakest || (a == weakest && i < weakestIdx)) {
			t.Fatalf("dropped coordinate %d (|g|=%v) outranks kept coordinate %d (|g|=%v)", i, a, weakestIdx, weakest)
		}
	}
}

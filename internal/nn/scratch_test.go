package nn

import (
	"math"
	"math/rand"
	"testing"

	"github.com/signguard/signguard/internal/tensor"
)

// bitsEqual compares two float slices by math.Float64bits and reports the
// first mismatch.
func bitsEqual(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d differs: %x vs %x (%v vs %v)",
				what, i, math.Float64bits(got[i]), math.Float64bits(want[i]), got[i], want[i])
		}
	}
}

// randTokens draws n variable-length in-vocab sequences; lengths cycle
// through 1..maxLen so single-token rows and the ragged tail are always
// exercised.
func randTokens(rng *rand.Rand, n, maxLen, vocab int) [][]int {
	tokens := make([][]int, n)
	for i := range tokens {
		l := 1 + (i*5)%maxLen
		seq := make([]int, l)
		for j := range seq {
			seq[j] = rng.Intn(vocab)
		}
		tokens[i] = seq
	}
	return tokens
}

// TestTextRNNBatchedMatchesPerClient: the batched time-major RNN kernel
// must de-interleave per-segment gradients byte-identical to running
// LossAndGrad on each segment alone — including one-row segments and
// ragged sequence lengths.
func TestTextRNNBatchedMatchesPerClient(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewTextRNN(rng, 50, 6, 9, 4)
	tokens := randTokens(rng, 10, 13, 50)
	labels := make([]int, len(tokens))
	for i := range labels {
		labels[i] = rng.Intn(4)
	}
	bounds := []int{0, 1, 4, 8, 10} // includes a one-row segment

	segs, err := m.BatchedLossAndGrad(Input{Tokens: tokens}, labels, bounds, nil)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s+1 < len(bounds); s++ {
		lo, hi := bounds[s], bounds[s+1]
		m.ZeroGrad()
		loss, correct, err := m.LossAndGrad(Input{Tokens: tokens[lo:hi]}, labels[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(loss) != math.Float64bits(segs[s].Loss) {
			t.Errorf("segment %d loss %v vs batched %v", s, loss, segs[s].Loss)
		}
		if correct != segs[s].Correct {
			t.Errorf("segment %d correct %d vs batched %d", s, correct, segs[s].Correct)
		}
		bitsEqual(t, "segment gradient", segs[s].Grad, m.GradVector())
	}
}

// TestTextRNNRejectsBadInput pins the batched kernel's validation: empty
// sequences, out-of-vocab tokens and malformed bounds must error, not
// corrupt state.
func TestTextRNNRejectsBadInput(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := NewTextRNN(rng, 10, 4, 5, 3)
	if _, err := m.BatchedLossAndGrad(Input{Tokens: [][]int{{}}}, []int{0}, []int{0, 1}, nil); err == nil {
		t.Error("empty sequence accepted")
	}
	if _, err := m.BatchedLossAndGrad(Input{Tokens: [][]int{{11}}}, []int{0}, []int{0, 1}, nil); err == nil {
		t.Error("out-of-vocab token accepted")
	}
	if _, err := m.BatchedLossAndGrad(Input{Tokens: [][]int{{1}, {2}}}, []int{0, 1}, []int{0, 1}, nil); err == nil {
		t.Error("non-covering bounds accepted")
	}
	if _, err := m.BatchedLossAndGrad(Input{Dense: tensor.NewMatrix(1, 4)}, []int{0}, []int{0, 1}, nil); err == nil {
		t.Error("dense input accepted by text model")
	}
}

// ownedScratch returns every scratch buffer a layer or model owns, each
// re-sliced to its capacity: the float buffers and the index buffers.
func ownedScratch(v any) (floats [][]float64, ints [][]int) {
	full := func(ms ...*tensor.Matrix) {
		for _, m := range ms {
			floats = append(floats, m.Data[:cap(m.Data)])
		}
	}
	switch l := v.(type) {
	case *ReLU:
		full(&l.out, &l.dx)
	case *Linear:
		full(&l.out, &l.dx)
	case *Conv2D:
		full(&l.out, &l.dx, &l.cols, &l.dcols)
		floats = append(floats, l.plane[:cap(l.plane)])
		ints = append(ints, l.nz[:cap(l.nz)])
	case *MaxPool2D:
		full(&l.out, &l.dx)
		ints = append(ints, l.lastArgmax[:cap(l.lastArgmax)])
	case *FeedForward:
		full(&l.lossGrad)
		for _, layer := range l.layers {
			f, n := ownedScratch(layer)
			floats, ints = append(floats, f...), append(ints, n...)
		}
	case *TextRNN:
		full(&l.embs, &l.hs, &l.pooled, &l.logits, &l.lossGrad, &l.dpooled, &l.dh, &l.da)
	}
	return floats, ints
}

// poisonScratch fills every buffer v owns, to its capacity, with NaN, and
// every integer buffer with an index far out of range: a pass through it
// reads nothing it did not write first.
func poisonScratch(v any) {
	floats, ints := ownedScratch(v)
	for _, f := range floats {
		for i := range f {
			f[i] = math.NaN()
		}
	}
	for _, s := range ints {
		for i := range s {
			s[i] = math.MinInt / 2
		}
	}
}

// retainedScratch counts the buffers v owns that hold memory, and the
// values they retain.
func retainedScratch(v any) (buffers, values int) {
	floats, ints := ownedScratch(v)
	for _, f := range floats {
		if len(f) > 0 {
			buffers, values = buffers+1, values+len(f)
		}
	}
	for _, s := range ints {
		if len(s) > 0 {
			buffers, values = buffers+1, values+len(s)
		}
	}
	return buffers, values
}

// scratchBatch draws rows samples of 36 features with labels
// in [0,4), the input of the CNN the reuse tests sweep.
func scratchBatch(t *testing.T, rng *rand.Rand, rows int) (*tensor.Matrix, []int) {
	t.Helper()
	x := tensor.NewMatrix(rows, 36)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	labels := make([]int, rows)
	for i := range labels {
		labels[i] = rng.Intn(4)
	}
	return x, labels
}

// checkSegments fails on the first loss, count or gradient bit that
// differs between two batched passes.
func checkSegments(t *testing.T, pass string, got, want []SegmentGrad) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d segments vs %d", pass, len(got), len(want))
	}
	for s := range got {
		if math.Float64bits(got[s].Loss) != math.Float64bits(want[s].Loss) {
			t.Errorf("%s: segment %d loss %v vs %v", pass, s, got[s].Loss, want[s].Loss)
		}
		if got[s].Correct != want[s].Correct {
			t.Errorf("%s: segment %d correct %d vs %d", pass, s, got[s].Correct, want[s].Correct)
		}
		bitsEqual(t, pass+" gradient", got[s].Grad, want[s].Grad)
	}
}

// TestScratchReuseBitwise: warm passes through a model's own buffers —
// including shape changes in between, which re-slice every buffer over the
// stale contents of the other shape, and NaN poisoning — must stay
// byte-identical to a freshly built model's first pass.
func TestScratchReuseBitwise(t *testing.T) {
	// build returns the CNN and the stream that drew its weights, which
	// goes on to draw the batches; every build has the same weights.
	build := func() (*FeedForward, *rand.Rand) {
		rng := rand.New(rand.NewSource(11))
		cnn, err := NewImageCNN(rng, 1, 6, 6, 3, 16, 4)
		if err != nil {
			t.Fatal(err)
		}
		return cnn, rng
	}
	cnn, rng := build()
	fresh := func() *FeedForward { m, _ := build(); return m }
	xA, labelsA := scratchBatch(t, rng, 10)
	boundsA := []int{0, 4, 10}
	xB, labelsB := scratchBatch(t, rng, 3)
	boundsB := []int{0, 1, 2, 3} // one-row tiles

	refA, err := fresh().BatchedLossAndGrad(Input{Dense: xA}, labelsA, boundsA, nil)
	if err != nil {
		t.Fatal(err)
	}
	refB, err := fresh().BatchedLossAndGrad(Input{Dense: xB}, labelsB, boundsB, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Alternate shapes through one model: A, B, A, B, A, and poison its
	// buffers before the last two. Every pass must reproduce the fresh
	// model's result exactly.
	for i := 0; i < 5; i++ {
		if i >= 3 {
			poisonScratch(cnn)
		}
		if i%2 == 0 {
			got, err := cnn.BatchedLossAndGrad(Input{Dense: xA}, labelsA, boundsA, nil)
			if err != nil {
				t.Fatal(err)
			}
			checkSegments(t, "warm pass A", got, refA)
		} else {
			got, err := cnn.BatchedLossAndGrad(Input{Dense: xB}, labelsB, boundsB, nil)
			if err != nil {
				t.Fatal(err)
			}
			checkSegments(t, "warm pass B", got, refB)
		}
	}
}

// TestScratchReuseBitwiseText is TestScratchReuseBitwise for the RNN:
// alternating max sequence lengths re-shapes the time-major buffers, and the
// stale long-run contents must never leak into a short-run pass.
func TestScratchReuseBitwiseText(t *testing.T) {
	build := func() (*TextRNN, *rand.Rand) {
		rng := rand.New(rand.NewSource(13))
		return NewTextRNN(rng, 30, 5, 7, 4), rng
	}
	m, rng := build()
	fresh := func() *TextRNN { m, _ := build(); return m }
	tokA := randTokens(rng, 8, 12, 30)
	tokB := randTokens(rng, 5, 3, 30)
	labA, labB := make([]int, 8), make([]int, 5)
	for i := range labA {
		labA[i] = rng.Intn(4)
	}
	for i := range labB {
		labB[i] = rng.Intn(4)
	}
	bndA, bndB := []int{0, 3, 8}, []int{0, 5}

	refA, err := fresh().BatchedLossAndGrad(Input{Tokens: tokA}, labA, bndA, nil)
	if err != nil {
		t.Fatal(err)
	}
	refB, err := fresh().BatchedLossAndGrad(Input{Tokens: tokB}, labB, bndB, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if i >= 2 {
			poisonScratch(m)
		}
		gotA, err := m.BatchedLossAndGrad(Input{Tokens: tokA}, labA, bndA, nil)
		if err != nil {
			t.Fatal(err)
		}
		if i >= 2 {
			poisonScratch(m)
		}
		gotB, err := m.BatchedLossAndGrad(Input{Tokens: tokB}, labB, bndB, nil)
		if err != nil {
			t.Fatal(err)
		}
		for s := range gotA {
			bitsEqual(t, "text warm pass A", gotA[s].Grad, refA[s].Grad)
		}
		for s := range gotB {
			bitsEqual(t, "text warm pass B", gotB[s].Grad, refB[s].Grad)
		}
	}
}

// TestScratchSteadyStateAllocs: warm layer buffers reduce the hot tile path
// to the allocations that must escape with a nil dst (the per-segment
// gradient vectors and their slice headers) plus a handful of fixed-size
// closures — an order of magnitude below a freshly built model's first
// pass, which allocates every buffer.
func TestScratchSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	build := func() *FeedForward {
		cnn, err := NewImageCNN(rng, 1, 6, 6, 3, 16, 4)
		if err != nil {
			t.Fatal(err)
		}
		return cnn
	}
	cnn := build()
	x, labels := scratchBatch(t, rng, 12)
	bounds := []int{0, 4, 8, 12}

	if _, err := cnn.BatchedLossAndGrad(Input{Dense: x}, labels, bounds, nil); err != nil {
		t.Fatal(err)
	}
	warm := testing.AllocsPerRun(20, func() {
		if _, err := cnn.BatchedLossAndGrad(Input{Dense: x}, labels, bounds, nil); err != nil {
			t.Fatal(err)
		}
	})
	// A first pass: a fresh model's, minus what building one costs.
	cold := testing.AllocsPerRun(20, func() {
		if _, err := build().BatchedLossAndGrad(Input{Dense: x}, labels, bounds, nil); err != nil {
			t.Fatal(err)
		}
	}) - testing.AllocsPerRun(20, func() { build() })
	// The warm bound is intentionally loose in absolute terms (escaping
	// gradient storage, loss/correct slices, parallel closures) but tight
	// relative to cold: regressing a single per-layer buffer back to
	// allocation-per-pass multiplies it.
	if warm > 24 {
		t.Errorf("warm pass makes %.0f allocations, want <= 24", warm)
	}
	if warm > cold/4 {
		t.Errorf("warm pass allocates %.0f vs a first pass's %.0f; layer buffers are not amortizing", warm, cold)
	}
}

// TestScratchRetentionBoundedByLargestTile: each layer grows its buffers
// to the largest request and re-slices them, so tiles of wandering row
// counts neither add buffers nor retain more values than the largest tile
// alone does. (Keyed by shape, five row counts would pin five sets.)
func TestScratchRetentionBoundedByLargestTile(t *testing.T) {
	build := func() (*FeedForward, *rand.Rand) {
		rng := rand.New(rand.NewSource(19))
		cnn, err := NewImageCNN(rng, 1, 6, 6, 3, 16, 4)
		if err != nil {
			t.Fatal(err)
		}
		return cnn, rng
	}
	cnn, rng := build()
	fresh := func() *FeedForward { m, _ := build(); return m }
	var buffers, values int
	for i, rows := range []int{12, 5, 9, 1, 7, 12} {
		x, labels := scratchBatch(t, rng, rows)
		want, err := fresh().BatchedLossAndGrad(Input{Dense: x}, labels, []int{0, rows}, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cnn.BatchedLossAndGrad(Input{Dense: x}, labels, []int{0, rows}, nil)
		if err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, "re-sliced scratch gradient", got[0].Grad, want[0].Grad)
		if i == 0 {
			buffers, values = retainedScratch(cnn)
			continue
		}
		if b, v := retainedScratch(cnn); b != buffers || v != values {
			t.Fatalf("after a %d-row tile the model holds %d buffers / %d values, want the largest tile's %d / %d",
				rows, b, v, buffers, values)
		}
	}
}

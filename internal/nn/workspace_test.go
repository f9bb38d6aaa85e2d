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

	segs, err := m.BatchedLossAndGrad(nil, Input{Tokens: tokens}, labels, bounds, nil)
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
	if _, err := m.BatchedLossAndGrad(nil, Input{Tokens: [][]int{{}}}, []int{0}, []int{0, 1}, nil); err == nil {
		t.Error("empty sequence accepted")
	}
	if _, err := m.BatchedLossAndGrad(nil, Input{Tokens: [][]int{{11}}}, []int{0}, []int{0, 1}, nil); err == nil {
		t.Error("out-of-vocab token accepted")
	}
	if _, err := m.BatchedLossAndGrad(nil, Input{Tokens: [][]int{{1}, {2}}}, []int{0, 1}, []int{0, 1}, nil); err == nil {
		t.Error("non-covering bounds accepted")
	}
	if _, err := m.BatchedLossAndGrad(nil, Input{Dense: tensor.NewMatrix(1, 4)}, []int{0}, []int{0, 1}, nil); err == nil {
		t.Error("dense input accepted by text model")
	}
}

// workspaceModels builds the model/input pairs the reuse tests sweep: the
// CNN stack (conv, pool, relu, linear layers) and the text RNN.
func workspaceBatch(t *testing.T, rng *rand.Rand, rows int) (*tensor.Matrix, []int) {
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

// TestWorkspaceReuseBitwise: passes through a warm arena — including shape
// changes in between, which re-slice every buffer over the stale contents
// of the other shape — must stay byte-identical to the allocation-per-pass
// path.
func TestWorkspaceReuseBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cnn, err := NewImageCNN(rng, 1, 6, 6, 3, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	xA, labelsA := workspaceBatch(t, rng, 10)
	boundsA := []int{0, 4, 10}
	xB, labelsB := workspaceBatch(t, rng, 3)
	boundsB := []int{0, 1, 2, 3} // one-row tiles

	refA, err := cnn.BatchedLossAndGrad(nil, Input{Dense: xA}, labelsA, boundsA, nil)
	if err != nil {
		t.Fatal(err)
	}
	refB, err := cnn.BatchedLossAndGrad(nil, Input{Dense: xB}, labelsB, boundsB, nil)
	if err != nil {
		t.Fatal(err)
	}

	check := func(pass string, got, want []SegmentGrad) {
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

	// Alternate shapes through one arena: A, B, A, B, A. Every pass must
	// reproduce the fresh-allocation result exactly.
	ws := NewWorkspace()
	for i := 0; i < 5; i++ {
		if i%2 == 0 {
			got, err := cnn.BatchedLossAndGrad(ws, Input{Dense: xA}, labelsA, boundsA, nil)
			if err != nil {
				t.Fatal(err)
			}
			check("warm pass A", got, refA)
		} else {
			got, err := cnn.BatchedLossAndGrad(ws, Input{Dense: xB}, labelsB, boundsB, nil)
			if err != nil {
				t.Fatal(err)
			}
			check("warm pass B", got, refB)
		}
	}
}

// TestWorkspaceReuseBitwiseText is TestWorkspaceReuseBitwise for the RNN:
// alternating max sequence lengths re-shapes the time-major buffers, and the
// stale long-run contents must never leak into a short-run pass.
func TestWorkspaceReuseBitwiseText(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := NewTextRNN(rng, 30, 5, 7, 4)
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

	refA, err := m.BatchedLossAndGrad(nil, Input{Tokens: tokA}, labA, bndA, nil)
	if err != nil {
		t.Fatal(err)
	}
	refB, err := m.BatchedLossAndGrad(nil, Input{Tokens: tokB}, labB, bndB, nil)
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWorkspace()
	for i := 0; i < 4; i++ {
		gotA, err := m.BatchedLossAndGrad(ws, Input{Tokens: tokA}, labA, bndA, nil)
		if err != nil {
			t.Fatal(err)
		}
		gotB, err := m.BatchedLossAndGrad(ws, Input{Tokens: tokB}, labB, bndB, nil)
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

// TestWorkspaceSteadyStateAllocs: a warm arena reduces the hot tile path to
// the allocations that must escape with a nil dst (the per-segment
// gradient vectors and their slice headers) plus a handful of fixed-size closures — an order of
// magnitude below the allocation-per-pass path.
func TestWorkspaceSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	cnn, err := NewImageCNN(rng, 1, 6, 6, 3, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	x, labels := workspaceBatch(t, rng, 12)
	bounds := []int{0, 4, 8, 12}

	ws := NewWorkspace()
	if _, err := cnn.BatchedLossAndGrad(ws, Input{Dense: x}, labels, bounds, nil); err != nil {
		t.Fatal(err)
	}
	warm := testing.AllocsPerRun(20, func() {
		if _, err := cnn.BatchedLossAndGrad(ws, Input{Dense: x}, labels, bounds, nil); err != nil {
			t.Fatal(err)
		}
	})
	cold := testing.AllocsPerRun(20, func() {
		if _, err := cnn.BatchedLossAndGrad(nil, Input{Dense: x}, labels, bounds, nil); err != nil {
			t.Fatal(err)
		}
	})
	// The warm bound is intentionally loose in absolute terms (escaping
	// gradient storage, loss/correct slices, parallel closures) but tight
	// relative to cold: regressing a single per-layer buffer back to
	// allocation-per-pass multiplies it.
	if warm > 24 {
		t.Errorf("warm arena pass makes %.0f allocations, want <= 24", warm)
	}
	if warm > cold/4 {
		t.Errorf("warm pass allocates %.0f vs cold %.0f; arena is not amortizing", warm, cold)
	}
}

// TestWorkspaceRetentionBoundedByLargestTile: the arena keys buffers by
// (layer, slot) and grows them to the largest request, so tiles of wandering
// row counts neither add buffers nor retain more floats than the largest
// tile alone does. (Keyed by shape, five row counts would pin five sets.)
func TestWorkspaceRetentionBoundedByLargestTile(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	cnn, err := NewImageCNN(rng, 1, 6, 6, 3, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	retained := func(ws *Workspace) (floats int) {
		for _, m := range ws.mats {
			floats += cap(m.Data)
		}
		return floats
	}
	ws := NewWorkspace()
	var buffers, floats int
	for i, rows := range []int{12, 5, 9, 1, 7, 12} {
		x, labels := workspaceBatch(t, rng, rows)
		want, err := cnn.BatchedLossAndGrad(nil, Input{Dense: x}, labels, []int{0, rows}, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cnn.BatchedLossAndGrad(ws, Input{Dense: x}, labels, []int{0, rows}, nil)
		if err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, "re-sliced arena gradient", got[0].Grad, want[0].Grad)
		if i == 0 {
			buffers, floats = ws.Buffers(), retained(ws)
			continue
		}
		if ws.Buffers() != buffers || retained(ws) != floats {
			t.Fatalf("after a %d-row tile the arena holds %d buffers / %d floats, want the largest tile's %d / %d",
				rows, ws.Buffers(), retained(ws), buffers, floats)
		}
	}
}

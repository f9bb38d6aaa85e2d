package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/signguard/signguard/internal/tensor"
)

// oracleIm2col is the reference im2col: sample's CHW values unrolled into
// rows [rowOff, rowOff+InC*K*K) of cols, one bounds test per element,
// padding written as explicit zeros.
func oracleIm2col(c *Conv2D, cols *tensor.Matrix, rowOff int, sample []float64) {
	for ch := 0; ch < c.InC; ch++ {
		chOff := ch * c.InH * c.InW
		for ki := 0; ki < c.K; ki++ {
			for kj := 0; kj < c.K; kj++ {
				rowIdx := (ch*c.K+ki)*c.K + kj
				row := cols.Row(rowOff + rowIdx)
				for oi := 0; oi < c.OutH; oi++ {
					si := oi - c.Pad + ki
					seg := row[oi*c.OutW : (oi+1)*c.OutW]
					if si < 0 || si >= c.InH {
						for p := range seg {
							seg[p] = 0
						}
						continue
					}
					src := sample[chOff+si*c.InW:]
					for oj := range seg {
						sj := oj - c.Pad + kj
						if sj < 0 || sj >= c.InW {
							seg[oj] = 0
						} else {
							seg[oj] = src[sj]
						}
					}
				}
			}
		}
	}
}

// oracleCol2im is the reference col2im: the (InC*K*K) x (OutH*OutW)
// gradient cols scattered into the CHW row sample, which starts at +0, one
// bounds test per element, in (ch, ki, kj, oi, oj) order.
func oracleCol2im(c *Conv2D, cols *tensor.Matrix, sample []float64) {
	for ch := 0; ch < c.InC; ch++ {
		chOff := ch * c.InH * c.InW
		for ki := 0; ki < c.K; ki++ {
			for kj := 0; kj < c.K; kj++ {
				row := cols.Row((ch*c.K+ki)*c.K + kj)
				for oi := 0; oi < c.OutH; oi++ {
					si := oi - c.Pad + ki
					if si < 0 || si >= c.InH {
						continue
					}
					for oj := 0; oj < c.OutW; oj++ {
						sj := oj - c.Pad + kj
						if sj < 0 || sj >= c.InW {
							continue
						}
						sample[chOff+si*c.InW+sj] += row[oi*c.OutW+oj]
					}
				}
			}
		}
	}
}

// oracleConvForward is the reference Conv2D forward pass: the plain
// per-sample, per-filter, per-column-row loop the blocked kernel replaced.
// It returns the output and the stacked im2col columns, and leaves c's
// state untouched.
func oracleConvForward(c *Conv2D, x *tensor.Matrix) (out, cols *tensor.Matrix) {
	colRows := c.InC * c.K * c.K
	spatial := c.OutH * c.OutW
	cols = tensor.NewMatrix(x.Rows*colRows, spatial)
	out = tensor.NewMatrix(x.Rows, c.OutputSize())
	for n := 0; n < x.Rows; n++ {
		base := n * colRows
		oracleIm2col(c, cols, base, x.Row(n))
		oRow := out.Row(n)
		for oc := 0; oc < c.OutC; oc++ {
			w := c.weight.W[oc*colRows : (oc+1)*colRows]
			b := c.bias.W[oc]
			dst := oRow[oc*spatial : (oc+1)*spatial]
			for p := range dst {
				dst[p] = b
			}
			for r, wv := range w {
				if wv == 0 {
					continue
				}
				src := cols.Row(base + r)
				for p, sv := range src {
					dst[p] += wv * sv
				}
			}
		}
	}
	return out, cols
}

// oracleConvBackward is the reference Conv2D backward pass over the columns
// oracleConvForward returned: one serial chain per (sample, filter, column
// row) for the filter gradient, fused with the im2col-gradient update, and
// oracleCol2im.
// segGrads[s] = {filter grad, bias grad} of rows [bounds[s], bounds[s+1]).
func oracleConvBackward(c *Conv2D, cols, grad *tensor.Matrix, bounds []int, segGrads [][][]float64) *tensor.Matrix {
	dx := tensor.NewMatrix(grad.Rows, c.InC*c.InH*c.InW)
	spatial := c.OutH * c.OutW
	colRows := c.InC * c.K * c.K
	dcols := tensor.NewMatrix(colRows, spatial)
	seg := 0
	for n := 0; n < grad.Rows; n++ {
		for n >= bounds[seg+1] {
			seg++
		}
		gw, bg := segGrads[seg][0], segGrads[seg][1]
		base := n * colRows
		gRow := grad.Row(n)
		for i := range dcols.Data {
			dcols.Data[i] = 0
		}
		for oc := 0; oc < c.OutC; oc++ {
			g := gRow[oc*spatial : (oc+1)*spatial]
			var gsum float64
			for _, gv := range g {
				gsum += gv
			}
			bg[oc] += gsum
			w := c.weight.W[oc*colRows : (oc+1)*colRows]
			gwoc := gw[oc*colRows : (oc+1)*colRows]
			for r := 0; r < colRows; r++ {
				src := cols.Row(base + r)
				drow := dcols.Row(r)
				wv := w[r]
				var wgrad float64
				for p, gv := range g {
					wgrad += gv * src[p]
					drow[p] += gv * wv
				}
				gwoc[r] += wgrad
			}
		}
		oracleCol2im(c, dcols, dx.Row(n))
	}
	return dx
}

// zeroRegime selects how many output-gradient entries of a convCase are
// zero, and which operand, if any, is made non-finite where it meets them.
type zeroRegime uint8

const (
	// denseGrad: one gradient entry in 40 is zero, as specialValue draws.
	denseGrad zeroRegime = iota
	// sparseGrad: at least 80% of the gradient entries are ±0, both signs
	// drawn; inputs are finite, as behind ReLU and max-pool.
	sparseGrad
	// sparseNonFiniteInput: sparseGrad, plus one NaN or ±Inf input that
	// meets only zero gradient entries, so the filter gradient must take
	// the dense kernel (0·Inf is NaN).
	sparseNonFiniteInput
	// sparseNonFiniteWeight: sparseGrad, plus one NaN or ±Inf weight, so
	// the input gradient must take the dense kernel.
	sparseNonFiniteWeight
	numZeroRegimes
)

func (z zeroRegime) String() string {
	return [...]string{"dense", "sparse", "sparse+nonfinite-input", "sparse+nonfinite-weight"}[z]
}

// convCase is one shape of the oracle comparison.
type convCase struct {
	inC, inH, inW, outC, k, pad int
	bounds                      []int // row segmentation; its last entry is the row count
	special                     bool  // sprinkle NaN, ±Inf and −0 into inputs (dense regime only) and gradients
	zeros                       zeroRegime
	seed                        int64
}

func (cs convCase) String() string {
	s := fmt.Sprintf("in%dx%dx%d/out%d/k%d/pad%d/bounds%v/special=%v",
		cs.inC, cs.inH, cs.inW, cs.outC, cs.k, cs.pad, cs.bounds, cs.special)
	if cs.zeros != denseGrad {
		s += "/grad=" + cs.zeros.String()
	}
	return s
}

// nonFinite returns NaN, +Inf or −Inf.
func nonFinite(rng *rand.Rand) float64 {
	return [...]float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
}

// sparseGradient fills grad with ±0 (both signs) except for a fifth of its
// entries, chosen at random, which take specialValue draws.
func sparseGradient(rng *rand.Rand, grad []float64, special bool) {
	for i := range grad {
		grad[i] = math.Copysign(0, float64(rng.Intn(2))-0.5)
	}
	for _, i := range rng.Perm(len(grad))[:len(grad)/5] {
		grad[i] = specialValue(rng, special)
	}
}

// hideNonFiniteInput makes one input of x non-finite and zeroes every
// gradient entry of its row whose receptive field holds it, so that the
// input meets only zero gradient entries.
func hideNonFiniteInput(rng *rand.Rand, c *Conv2D, x, grad *tensor.Matrix) {
	n, ch := rng.Intn(x.Rows), rng.Intn(c.InC)
	si, sj := rng.Intn(c.InH), rng.Intn(c.InW)
	x.Row(n)[(ch*c.InH+si)*c.InW+sj] = nonFinite(rng)
	// Output (oi, oj) reads input (oi-Pad+ki, oj-Pad+kj) for ki, kj < K.
	gRow := grad.Row(n)
	for oi := max(0, si+c.Pad-c.K+1); oi <= min(c.OutH-1, si+c.Pad); oi++ {
		for oj := max(0, sj+c.Pad-c.K+1); oj <= min(c.OutW-1, sj+c.Pad); oj++ {
			for oc := 0; oc < c.OutC; oc++ {
				gRow[(oc*c.OutH+oi)*c.OutW+oj] = 0
			}
		}
	}
}

// sameBits compares two results by math.Float64bits, except that any NaN
// matches any NaN: both the kernel and the oracle add and multiply through
// commutative machine instructions whose operands the compiler may swap,
// and which NaN's payload survives depends on that order.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

func sameBitsSlice(tb testing.TB, what string, got, want []float64) {
	tb.Helper()
	if len(got) != len(want) {
		tb.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !sameBits(got[i], want[i]) {
			tb.Fatalf("%s[%d] = %v (%#x), want %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// specialValue returns the rng's next value for a convCase: mostly normal
// draws, with exact zeros, and — for special cases — −0, NaN and ±Inf.
func specialValue(rng *rand.Rand, special bool) float64 {
	switch u := rng.Intn(40); {
	case u == 0:
		return 0
	case special && u == 1:
		return math.Copysign(0, -1)
	case special && u == 2:
		return math.NaN()
	case special && u == 3:
		return math.Inf(1)
	case special && u == 4:
		return math.Inf(-1)
	}
	return rng.NormFloat64()
}

// newSegGrads allocates zeroed {filter, bias} gradient buffers per segment.
func newSegGrads(c *Conv2D, segs int) [][][]float64 {
	out := make([][][]float64, segs)
	for s := range out {
		out[s] = [][]float64{make([]float64, len(c.weight.W)), make([]float64, len(c.bias.W))}
	}
	return out
}

// checkConvAgainstOracle runs cs through the oracle and through the
// layer's kernels — on a freshly built layer and again with its buffers
// poisoned, with and without the input gradient, segmented and through the
// public API — and fails on the first result that differs.
func checkConvAgainstOracle(tb testing.TB, cs convCase) {
	tb.Helper()
	rng := rand.New(rand.NewSource(cs.seed))
	c, err := NewConv2D(rng, cs.inC, cs.inH, cs.inW, cs.outC, cs.k, cs.pad)
	if err != nil {
		tb.Fatal(err)
	}
	for i := range c.weight.W {
		if rng.Intn(5) == 0 {
			c.weight.W[i] = 0
		}
	}
	for i := range c.bias.W {
		c.bias.W[i] = rng.NormFloat64()
	}
	c.bias.W[0] = math.Copysign(0, -1)
	if cs.outC > 1 && cs.special {
		// A filter whose weights are all zero: every output is the bias,
		// whatever the input holds.
		clear(c.weight.W[:cs.inC*cs.k*cs.k])
	}
	rows := cs.bounds[len(cs.bounds)-1]
	x := tensor.NewMatrix(rows, cs.inC*cs.inH*cs.inW)
	for i := range x.Data {
		x.Data[i] = specialValue(rng, cs.special && cs.zeros == denseGrad)
	}
	grad := tensor.NewMatrix(rows, c.OutputSize())
	if cs.zeros == denseGrad {
		for i := range grad.Data {
			grad.Data[i] = specialValue(rng, cs.special)
		}
	} else {
		sparseGradient(rng, grad.Data, cs.special)
	}
	switch cs.zeros {
	case sparseNonFiniteInput:
		hideNonFiniteInput(rng, c, x, grad)
	case sparseNonFiniteWeight:
		c.weight.W[rng.Intn(len(c.weight.W))] = nonFinite(rng)
	}
	segs := len(cs.bounds) - 1

	wantOut, cols := oracleConvForward(c, x)
	wantGrads := newSegGrads(c, segs)
	wantDX := oracleConvBackward(c, cols, grad, cs.bounds, wantGrads)

	for _, name := range []string{"fresh layer", "poisoned layer"} {
		if name == "poisoned layer" {
			// The fresh pass warmed every buffer on this shape: leave NaN
			// in each.
			poisonScratch(c)
		}
		out, err := c.Forward(x)
		if err != nil {
			tb.Fatal(err)
		}
		sameBitsSlice(tb, name+" output", out.Data, wantOut.Data)
		for _, needDX := range []bool{true, false} {
			got := newSegGrads(c, segs)
			dx, err := c.backwardSegmented(grad, cs.bounds, got, needDX)
			if err != nil {
				tb.Fatal(err)
			}
			for s := range got {
				sameBitsSlice(tb, fmt.Sprintf("%s needDX=%v segment %d filter grad", name, needDX, s), got[s][0], wantGrads[s][0])
				sameBitsSlice(tb, fmt.Sprintf("%s needDX=%v segment %d bias grad", name, needDX, s), got[s][1], wantGrads[s][1])
			}
			if !needDX {
				if dx != nil {
					tb.Fatalf("%s: backward without needDX returned an input gradient", name)
				}
				continue
			}
			sameBitsSlice(tb, name+" dX", dx.Data, wantDX.Data)
		}
	}

	// The public API: one segment, accumulated into the layer's own Grad.
	if _, err := c.Forward(x); err != nil {
		tb.Fatal(err)
	}
	c.weight.Grad, c.bias.Grad = make([]float64, len(c.weight.W)), make([]float64, len(c.bias.W))
	dx, err := c.Backward(grad)
	if err != nil {
		tb.Fatal(err)
	}
	whole := newSegGrads(c, 1)
	oracleConvBackward(c, cols, grad, []int{0, rows}, whole)
	sameBitsSlice(tb, "Backward filter grad", c.weight.Grad, whole[0][0])
	sameBitsSlice(tb, "Backward bias grad", c.bias.Grad, whole[0][1])
	sameBitsSlice(tb, "Backward dX", dx.Data, wantDX.Data)
}

// TestConv2DMatchesOracle pins every Conv2D output, segment gradient and
// input gradient to the reference loops, bit for bit, over channel counts,
// kernel sizes, paddings and filter counts on both sides of the kernels'
// block widths (8 output positions, 4 column rows, 4 filters), with
// output planes that are and are not multiples of them, and over every
// zeroRegime: the zero-skipping kernels and both of their dense fallbacks.
func TestConv2DMatchesOracle(t *testing.T) {
	var seed int64
	for _, inC := range []int{1, 3} {
		for _, k := range []int{1, 3, 5} {
			for _, pad := range []int{0, 1, 2} {
				for _, outC := range []int{1, 3, 4, 6, 8, 16} {
					for _, hw := range [][2]int{{7, 5}, {6, 9}, {2, 1}} {
						for _, special := range []bool{false, true} {
							seed++
							for zeros := range numZeroRegimes {
								cs := convCase{inC: inC, inH: hw[0], inW: hw[1], outC: outC, k: k, pad: pad,
									bounds: []int{0, 1, 4, 6}, special: special, zeros: zeros, seed: seed + 1000*int64(zeros)}
								if cs.inH+2*pad-k+1 <= 0 || cs.inW+2*pad-k+1 <= 0 {
									continue
								}
								t.Run(cs.String(), func(t *testing.T) { checkConvAgainstOracle(t, cs) })
							}
						}
					}
				}
			}
		}
	}
	// One segment, and a one-row batch.
	for _, bounds := range [][]int{{0, 5}, {0, 1}} {
		for zeros := range numZeroRegimes {
			cs := convCase{inC: 3, inH: 8, inW: 8, outC: 8, k: 3, pad: 1, bounds: bounds, special: true, zeros: zeros, seed: 99 + 1000*int64(zeros)}
			t.Run(cs.String(), func(t *testing.T) { checkConvAgainstOracle(t, cs) })
		}
	}
}

// FuzzConv2DMatchesOracle drives the oracle comparison over random shapes,
// segmentations, values and zero regimes.
func FuzzConv2DMatchesOracle(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(8), uint8(8), uint8(8), uint8(3), uint8(1), uint8(6), true, uint8(denseGrad))
	f.Add(int64(2), uint8(8), uint8(4), uint8(4), uint8(16), uint8(3), uint8(1), uint8(3), false, uint8(denseGrad))
	f.Add(int64(3), uint8(1), uint8(5), uint8(7), uint8(6), uint8(5), uint8(2), uint8(1), true, uint8(denseGrad))
	f.Add(int64(4), uint8(3), uint8(8), uint8(8), uint8(8), uint8(3), uint8(1), uint8(6), false, uint8(sparseGrad))
	f.Add(int64(5), uint8(8), uint8(4), uint8(4), uint8(16), uint8(3), uint8(1), uint8(4), true, uint8(sparseNonFiniteInput))
	f.Add(int64(6), uint8(8), uint8(4), uint8(4), uint8(16), uint8(3), uint8(1), uint8(5), false, uint8(sparseNonFiniteWeight))
	f.Fuzz(func(t *testing.T, seed int64, inC, inH, inW, outC, k, pad, rows uint8, special bool, zeros uint8) {
		cs := convCase{
			inC: 1 + int(inC)%8, inH: 1 + int(inH)%10, inW: 1 + int(inW)%10,
			outC: 1 + int(outC)%17, k: 1 + int(k)%5, pad: int(pad) % 3,
			special: special, zeros: zeroRegime(zeros % uint8(numZeroRegimes)), seed: seed,
		}
		if cs.inH+2*cs.pad-cs.k+1 <= 0 || cs.inW+2*cs.pad-cs.k+1 <= 0 {
			return
		}
		n := 1 + int(rows)%7
		rng := rand.New(rand.NewSource(seed))
		cs.bounds = []int{0}
		for at := 0; at < n; {
			at += 1 + rng.Intn(n-at)
			cs.bounds = append(cs.bounds, at)
		}
		checkConvAgainstOracle(t, cs)
	})
}

// BenchmarkConv2D times DeepCNN's two convolutions (the CIFAR analog: 3×8×8
// input, 8 then 16 filters of 3×3 with padding 1) on a 200-row tile through
// warm layer buffers. conv1 is the model's first layer, so its backward pass
// computes no input gradient; conv1/backward-dX times it as a later layer.
// The backward passes take the gradient the model hands a convolution: a
// dense upstream gradient pushed back through the 2×2 MaxPool2D and the
// ReLU that follow it, after a forward pass; zero-share reports the share
// of its entries that are exactly zero. backward-dense times the same pass
// on a dense gradient.
func BenchmarkConv2D(b *testing.B) {
	for _, bc := range []struct {
		name                        string
		inC, inH, inW, outC, k, pad int
		needDX                      bool
	}{
		{"conv1", 3, 8, 8, 8, 3, 1, false},
		{"conv2", 8, 4, 4, 16, 3, 1, true},
	} {
		rng := rand.New(rand.NewSource(1))
		c, err := NewConv2D(rng, bc.inC, bc.inH, bc.inW, bc.outC, bc.k, bc.pad)
		if err != nil {
			b.Fatal(err)
		}
		const rows = 200
		x := denseBatch(rng, rows, bc.inC*bc.inH*bc.inW)
		dense := denseBatch(rng, rows, c.OutputSize())
		grad, zeroShare := pooledGradient(b, rng, c, x)
		bounds := []int{0, 50, 100, 150, rows}
		segGrads := newSegGrads(c, len(bounds)-1)
		if _, err := c.Forward(x); err != nil {
			b.Fatal(err)
		}
		b.Run(bc.name+"/forward", func(b *testing.B) {
			for b.Loop() {
				if _, err := c.Forward(x); err != nil {
					b.Fatal(err)
				}
			}
		})
		backward := func(grad *tensor.Matrix, needDX bool) func(b *testing.B) {
			return func(b *testing.B) {
				for b.Loop() {
					if _, err := c.backwardSegmented(grad, bounds, segGrads, needDX); err != nil {
						b.Fatal(err)
					}
				}
				if grad != dense {
					b.ReportMetric(zeroShare, "zero-share")
				}
			}
		}
		b.Run(bc.name+"/backward", backward(grad, bc.needDX))
		if !bc.needDX {
			b.Run(bc.name+"/backward-dX", backward(grad, true))
		}
		b.Run(bc.name+"/backward-dense", backward(dense, bc.needDX))
	}
}

// pooledGradient returns the gradient that reaches c's output when c is
// followed by a ReLU and a 2×2 MaxPool2D, as in the model zoo's CNNs: x
// goes forward through the three layers, and a dense upstream gradient
// comes back through the pool and the ReLU. It also returns the share of
// the gradient's entries that are exactly zero. c is left holding x's
// forward pass.
func pooledGradient(tb testing.TB, rng *rand.Rand, c *Conv2D, x *tensor.Matrix) (*tensor.Matrix, float64) {
	tb.Helper()
	relu := NewReLU()
	pool, err := NewMaxPool2D(c.OutC, c.OutH, c.OutW, 2)
	if err != nil {
		tb.Fatal(err)
	}
	h, err := c.Forward(x)
	if err == nil {
		h, err = relu.Forward(h)
	}
	if err == nil {
		_, err = pool.Forward(h)
	}
	if err != nil {
		tb.Fatal(err)
	}
	g, err := pool.Backward(denseBatch(rng, x.Rows, pool.OutputSize()))
	if err == nil {
		g, err = relu.Backward(g)
	}
	if err != nil {
		tb.Fatal(err)
	}
	zeros := 0
	for _, v := range g.Data {
		if v == 0 {
			zeros++
		}
	}
	return g, float64(zeros) / float64(len(g.Data))
}

// maxPoolNoCandidate builds a 1-channel pooling layer of the given window
// size over a 2×2 grid of windows and fills window (0, 1) with fill.
func maxPoolNoCandidate(t *testing.T, size int, fill []float64) (*MaxPool2D, *tensor.Matrix) {
	t.Helper()
	p, err := NewMaxPool2D(1, 2*size, 2*size, size)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.NewMatrix(1, 4*size*size)
	for i := range x.Data {
		x.Data[i] = float64(i)
	}
	for di := 0; di < size; di++ {
		for dj := 0; dj < size; dj++ {
			x.Data[di*2*size+size+dj] = fill[di*size+dj]
		}
	}
	return p, x
}

// TestMaxPoolNoCandidateWindow: a window with no candidate above −Inf —
// all NaN, all −Inf, or a mix — outputs its first NaN (−Inf without one)
// and routes its gradient to that element, while windows with a candidate
// above −Inf keep their output; on both the 2×2 path and the generic one.
func TestMaxPoolNoCandidateWindow(t *testing.T) {
	nan, ninf := math.NaN(), math.Inf(-1)
	for _, size := range []int{2, 3} {
		n := size * size
		fills := map[string]struct {
			fill    []float64
			wantPos int // window position of the argmax
		}{
			"all-NaN":       {make([]float64, n), 0},
			"all-−Inf":      {make([]float64, n), 0},
			"−Inf-then-NaN": {make([]float64, n), n - 1},
			// A candidate above −Inf still hides a NaN, as it always did.
			"NaN-then-finite": {make([]float64, n), 2},
		}
		for i := 0; i < n; i++ {
			fills["all-NaN"].fill[i] = nan
			fills["all-−Inf"].fill[i] = ninf
			fills["−Inf-then-NaN"].fill[i] = ninf
			fills["NaN-then-finite"].fill[i] = 5
		}
		fills["−Inf-then-NaN"].fill[n-1] = nan
		fills["NaN-then-finite"].fill[0] = nan
		fills["NaN-then-finite"].fill[1] = ninf
		for name, fc := range fills {
			t.Run(fmt.Sprintf("%dx%d/%s", size, size, name), func(t *testing.T) {
				p, x := maxPoolNoCandidate(t, size, fc.fill)
				out, err := p.Forward(x)
				if err != nil {
					t.Fatal(err)
				}
				want := fc.fill[fc.wantPos]
				if !sameBits(out.Data[1], want) {
					t.Errorf("window output %v, want %v", out.Data[1], want)
				}
				// The other windows each hold a candidate above −Inf: their
				// maximum is their last (largest) element.
				for _, w := range []int{0, 2, 3} {
					wi, wj := w/2, w%2
					last := float64((wi*size+size-1)*2*size + wj*size + size - 1)
					if out.Data[w] != last {
						t.Errorf("window %d output %v, want %v", w, out.Data[w], last)
					}
				}
				grad := &tensor.Matrix{Rows: 1, Cols: 4, Data: []float64{1, 2, 3, 4}}
				dx, err := p.Backward(grad)
				if err != nil {
					t.Fatal(err)
				}
				at := (fc.wantPos/size)*2*size + size + fc.wantPos%size
				if dx.Data[at] != 2 {
					t.Errorf("window gradient reached input %d as %v, want 2 at the argmax", at, dx.Data[at])
				}
			})
		}
	}
}

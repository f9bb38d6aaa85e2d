package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/signguard/signguard/internal/tensor"
)

// The element-wise layers select instead of branching (positiveMask,
// pool2x2). The oracles below are the branching loops they replaced;
// since both sides only move values, never compute them, results are
// compared bit for bit, NaN payloads included.

// oracleReLU returns the branching ReLU forward pass over x and, for a
// gradient g of x's shape, its backward pass.
func oracleReLU(x, g []float64) (out, dx []float64) {
	out, dx = make([]float64, len(x)), make([]float64, len(g))
	for i, v := range x {
		if v > 0 {
			out[i] = v
			dx[i] = g[i]
		} else {
			out[i] = 0
			dx[i] = 0
		}
	}
	return out, dx
}

// oracleMaxPool is the generic MaxPool2D loop with the no-candidate rule
// spelled out: the strict-greater scan from −Inf in (di, dj) order, and for
// a window with nothing above −Inf its first NaN, else its first element.
// It returns the output and the argmax of every window.
func oracleMaxPool(p *MaxPool2D, x *tensor.Matrix) (*tensor.Matrix, []int) {
	out := tensor.NewMatrix(x.Rows, p.OutputSize())
	argmax := make([]int, x.Rows*p.OutputSize())
	for n := 0; n < x.Rows; n++ {
		sample := x.Row(n)
		for c := 0; c < p.C; c++ {
			for oi := 0; oi < p.OutH; oi++ {
				for oj := 0; oj < p.OutW; oj++ {
					var window []int
					for di := 0; di < p.Size; di++ {
						for dj := 0; dj < p.Size; dj++ {
							window = append(window, (c*p.H+oi*p.Size+di)*p.W+oj*p.Size+dj)
						}
					}
					best, bestIdx := math.Inf(-1), -1
					for _, idx := range window {
						if sample[idx] > best {
							best, bestIdx = sample[idx], idx
						}
					}
					if bestIdx < 0 {
						bestIdx = window[0]
						for _, idx := range window {
							if math.IsNaN(sample[idx]) {
								bestIdx = idx
								break
							}
						}
						best = sample[bestIdx]
					}
					o := (c*p.OutH+oi)*p.OutW + oj
					out.Row(n)[o] = best
					argmax[n*p.OutputSize()+o] = bestIdx
				}
			}
		}
	}
	return out, argmax
}

// edgeFloats are the values at ReLU's and max-pool's decision boundaries:
// both zeros, both smallest denormals, both largest finite values, both
// infinities, and NaNs with the sign bit clear and set, quiet and
// signalling, with distinct payloads.
var edgeFloats = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.MaxFloat64, -math.MaxFloat64,
	math.Inf(1), math.Inf(-1),
	math.Float64frombits(0x7FF8000000000000), math.Float64frombits(0x7FF8000000000123),
	math.Float64frombits(0x7FF0000000000001), math.Float64frombits(0x7FFFFFFFFFFFFFFF),
	math.Float64frombits(0xFFF8000000000000), math.Float64frombits(0xFFF0000000000abc),
	math.Float64frombits(0xFFFFFFFFFFFFFFFF),
	1, -1, 0.5, -2.5,
}

// checkReLUAgainstOracle runs x and g through a freshly built ReLU and
// again with its buffers NaN-poisoned, and fails on the first bit that
// differs from oracleReLU.
func checkReLUAgainstOracle(t *testing.T, x, g *tensor.Matrix) {
	t.Helper()
	wantOut, wantDX := oracleReLU(x.Data, g.Data)
	r := NewReLU()
	out, err := r.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "plain forward", out.Data, wantOut)
	dx, err := r.Backward(g)
	if err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "plain backward", dx.Data, wantDX)

	poisonScratch(r)
	if out, err = r.Forward(x); err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "poisoned forward", out.Data, wantOut)
	if dx, err = r.Backward(g); err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "poisoned backward", dx.Data, wantDX)
}

// TestReLUMatchesBranchingOracle pins the branch-free ReLU to the
// branching loop on every pair of edge values — input row by gradient
// column, so a NaN or ±Inf gradient sits behind every positive and every
// non-positive input — and on random rows.
func TestReLUMatchesBranchingOracle(t *testing.T) {
	n := len(edgeFloats)
	x, g := tensor.NewMatrix(n, n), tensor.NewMatrix(n, n)
	for i, xv := range edgeFloats {
		for j, gv := range edgeFloats {
			x.Row(i)[j], g.Row(i)[j] = xv, gv
		}
	}
	t.Run("edges", func(t *testing.T) { checkReLUAgainstOracle(t, x, g) })
	rng := rand.New(rand.NewSource(3))
	x, g = tensor.NewMatrix(7, 37), tensor.NewMatrix(7, 37)
	for i := range x.Data {
		x.Data[i], g.Data[i] = specialValue(rng, true), specialValue(rng, true)
	}
	t.Run("random", func(t *testing.T) { checkReLUAgainstOracle(t, x, g) })
}

// checkMaxPoolAgainstOracle runs x through a 2×2 MaxPool2D of shape c×h×w
// — freshly built and again with its buffers NaN-poisoned — and compares the output bits, the
// argmax and the backward routing of g with oracleMaxPool.
func checkMaxPoolAgainstOracle(t *testing.T, c, h, w int, x, g *tensor.Matrix) {
	t.Helper()
	p, err := NewMaxPool2D(c, h, w, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantOut, wantArgmax := oracleMaxPool(p, x)
	wantDX := tensor.NewMatrix(x.Rows, x.Cols)
	for n := 0; n < x.Rows; n++ {
		for o, idx := range wantArgmax[n*p.OutputSize() : (n+1)*p.OutputSize()] {
			wantDX.Row(n)[idx] += g.Row(n)[o]
		}
	}
	for _, name := range []string{"plain", "poisoned"} {
		if name == "poisoned" {
			poisonScratch(p)
		}
		out, err := p.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, name+" output", out.Data, wantOut.Data)
		for i, idx := range p.lastArgmax {
			if idx != wantArgmax[i] {
				t.Fatalf("%s argmax[%d] = %d, want %d", name, i, idx, wantArgmax[i])
			}
		}
		dx, err := p.Backward(g)
		if err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, name+" dX", dx.Data, wantDX.Data)
	}
}

// saltedValue returns a normal draw, or — one time in three — an edge
// value or a member of a small set of repeated values, so windows hold
// NaN, ±Inf, ±0 and ties.
func saltedValue(rng *rand.Rand) float64 {
	switch rng.Intn(6) {
	case 0:
		return edgeFloats[rng.Intn(len(edgeFloats))]
	case 1:
		return float64(rng.Intn(3) - 1)
	}
	return rng.NormFloat64()
}

// TestMaxPool2x2MatchesGenericOracle pins the branch-free 2×2 pool to the
// generic loop on salted random rows, over channel counts and output
// widths, DeepCNN's two pooling shapes among them.
func TestMaxPool2x2MatchesGenericOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, sh := range [][3]int{{1, 2, 2}, {3, 4, 6}, {2, 6, 2}, {1, 2, 14}, {8, 8, 8}, {16, 4, 4}} {
		c, h, w := sh[0], sh[1], sh[2]
		t.Run(fmt.Sprintf("%dx%dx%d", c, h, w), func(t *testing.T) {
			x, g := tensor.NewMatrix(5, c*h*w), tensor.NewMatrix(5, c*h*w/4)
			for i := range x.Data {
				x.Data[i] = saltedValue(rng)
			}
			for i := range g.Data {
				g.Data[i] = rng.NormFloat64()
			}
			checkMaxPoolAgainstOracle(t, c, h, w, x, g)
		})
	}
}

// FuzzElementwiseMatchesOracle drives both oracle comparisons over random
// shapes and salted values; raw overwrites the leading inputs with
// arbitrary bit patterns, eight bytes each.
func FuzzElementwiseMatchesOracle(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(4), uint8(4), uint8(3), []byte{})
	f.Add(int64(2), uint8(16), uint8(2), uint8(2), uint8(1), []byte{0, 0, 0, 0, 0, 0, 0xF8, 0x7F, 1, 0, 0, 0, 0, 0, 0xF0, 0xFF})
	f.Add(int64(3), uint8(1), uint8(5), uint8(7), uint8(6), []byte{1, 0, 0, 0, 0, 0, 0, 0x80, 0, 0, 0, 0, 0, 0, 0xF0, 0x7F})
	f.Fuzz(func(t *testing.T, seed int64, c, h, w, rows uint8, raw []byte) {
		ch, hh, ww, n := 1+int(c)%16, 2*(1+int(h)%5), 2*(1+int(w)%5), 1+int(rows)%6
		rng := rand.New(rand.NewSource(seed))
		x, gIn := tensor.NewMatrix(n, ch*hh*ww), tensor.NewMatrix(n, ch*hh*ww)
		gOut := tensor.NewMatrix(n, ch*hh*ww/4)
		for i := range x.Data {
			x.Data[i], gIn.Data[i] = saltedValue(rng), saltedValue(rng)
		}
		for i := 0; i+8 <= len(raw) && i/8 < len(x.Data); i += 8 {
			var b uint64
			for k := 7; k >= 0; k-- {
				b = b<<8 | uint64(raw[i+k])
			}
			x.Data[i/8] = math.Float64frombits(b)
		}
		for i := range gOut.Data {
			gOut.Data[i] = rng.NormFloat64()
		}
		checkReLUAgainstOracle(t, x, gIn)
		checkMaxPoolAgainstOracle(t, ch, hh, ww, x, gOut)
	})
}

// BenchmarkElementwise times the layers between DeepCNN's convolutions —
// ReLU forward and backward, then the 2×2 MaxPool2D forward and backward —
// at the shapes of conv1's output (8×8×8) and conv2's (16×4×4), on a
// 200-row tile through warm layer buffers. The ReLU's input is standard normal,
// so its signs are a coin flip, as a convolution's output's are; the pool
// takes the ReLU's output, and both backward passes a dense gradient.
func BenchmarkElementwise(b *testing.B) {
	for _, bc := range []struct {
		name    string
		c, h, w int
	}{
		{"conv1", 8, 8, 8},
		{"conv2", 16, 4, 4},
	} {
		const rows = 200
		rng := rand.New(rand.NewSource(1))
		x := denseBatch(rng, rows, bc.c*bc.h*bc.w)
		relu := NewReLU()
		pool, err := NewMaxPool2D(bc.c, bc.h, bc.w, 2)
		if err != nil {
			b.Fatal(err)
		}
		h, err := relu.Forward(x)
		if err == nil {
			_, err = pool.Forward(h)
		}
		if err != nil {
			b.Fatal(err)
		}
		gReLU := denseBatch(rng, rows, x.Cols)
		gPool := denseBatch(rng, rows, pool.OutputSize())
		for _, pass := range []struct {
			name string
			run  func() error
		}{
			{"relu-forward", func() error { _, err := relu.Forward(x); return err }},
			{"relu-backward", func() error { _, err := relu.Backward(gReLU); return err }},
			{"pool-forward", func() error { _, err := pool.Forward(h); return err }},
			{"pool-backward", func() error { _, err := pool.Backward(gPool); return err }},
		} {
			b.Run(bc.name+"/"+pass.name, func(b *testing.B) {
				for b.Loop() {
					if err := pass.run(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

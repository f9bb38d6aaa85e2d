package nn

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/signguard/signguard/internal/tensor"
)

// Conv2D is a 2-D convolution over CHW-flattened batch rows, implemented
// with im2col. Stride is fixed at 1; Pad controls zero padding.
type Conv2D struct {
	InC, InH, InW int // input shape per sample
	OutC          int // number of filters
	K             int // square kernel size
	Pad           int // zero padding on each side

	OutH, OutW int

	weight *Param // OutC x (InC*K*K), row-major
	bias   *Param // OutC

	lastInput *tensor.Matrix
	// lastCols stacks every sample's im2col columns into one matrix:
	// sample n's (InC*K*K) rows start at n*InC*K*K. One buffer for the
	// whole tile replaces the per-sample matrix allocations that used to
	// dominate the allocation profile.
	lastCols *tensor.Matrix
}

var _ Layer = (*Conv2D)(nil)
var _ segmentedLayer = (*Conv2D)(nil)
var _ arenaLayer = (*Conv2D)(nil)

// NewConv2D builds a stride-1 convolution layer with He-uniform init.
func NewConv2D(rng *rand.Rand, inC, inH, inW, outC, k, pad int) (*Conv2D, error) {
	outH := inH + 2*pad - k + 1
	outW := inW + 2*pad - k + 1
	if outH <= 0 || outW <= 0 {
		return nil, fmt.Errorf("%w: Conv2D output %dx%d non-positive", ErrShape, outH, outW)
	}
	c := &Conv2D{
		InC: inC, InH: inH, InW: inW,
		OutC: outC, K: k, Pad: pad,
		OutH: outH, OutW: outW,
		weight: newParam(fmt.Sprintf("conv%dx%dx%d.weight", outC, inC, k), outC*inC*k*k),
		bias:   newParam(fmt.Sprintf("conv%dx%dx%d.bias", outC, inC, k), outC),
	}
	fanIn := float64(inC * k * k)
	bound := math.Sqrt(6.0 / fanIn)
	for i := range c.weight.W {
		c.weight.W[i] = (2*rng.Float64() - 1) * bound
	}
	return c, nil
}

// OutputSize returns the flattened per-sample output length OutC*OutH*OutW.
func (c *Conv2D) OutputSize() int { return c.OutC * c.OutH * c.OutW }

// im2colInto unrolls one CHW sample into rows [rowOff, rowOff+InC*K*K) of
// cols. Every element of those rows is written — positions that fall in the
// zero padding get an explicit 0, the value the old allocate-per-sample
// implementation inherited from the zeroed allocation — so a stale arena
// buffer produces byte-identical columns.
func (c *Conv2D) im2colInto(cols *tensor.Matrix, rowOff int, sample []float64) {
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

// col2im scatters a (InC*K*K) x (OutH*OutW) gradient back into a CHW sample.
func (c *Conv2D) col2im(cols *tensor.Matrix, sample []float64) {
	for ch := 0; ch < c.InC; ch++ {
		chOff := ch * c.InH * c.InW
		for ki := 0; ki < c.K; ki++ {
			for kj := 0; kj < c.K; kj++ {
				rowIdx := (ch*c.K+ki)*c.K + kj
				row := cols.Row(rowIdx)
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

// Forward convolves each sample in the batch.
func (c *Conv2D) Forward(x *tensor.Matrix) (*tensor.Matrix, error) {
	return c.forwardWs(nil, 0, x)
}

// forwardWs is Forward with optional workspace buffers for the output and
// the stacked im2col columns (both fully overwritten).
func (c *Conv2D) forwardWs(ws *Workspace, id int, x *tensor.Matrix) (*tensor.Matrix, error) {
	if x.Cols != c.InC*c.InH*c.InW {
		return nil, fmt.Errorf("%w: Conv2D expects %d inputs, got %d", ErrShape, c.InC*c.InH*c.InW, x.Cols)
	}
	c.lastInput = x
	colRows := c.InC * c.K * c.K
	spatial := c.OutH * c.OutW
	cols := ws.matrix(id, wsCols, x.Rows*colRows, spatial)
	c.lastCols = cols
	out := ws.matrix(id, wsFwd, x.Rows, c.OutputSize())
	for n := 0; n < x.Rows; n++ {
		base := n * colRows
		c.im2colInto(cols, base, x.Row(n))
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
	return out, nil
}

// Backward accumulates filter/bias gradients and returns the input gradient.
func (c *Conv2D) Backward(grad *tensor.Matrix) (*tensor.Matrix, error) {
	return c.backwardWs(nil, 0, grad)
}

// backwardWs is Backward with optional workspace buffers.
func (c *Conv2D) backwardWs(ws *Workspace, id int, grad *tensor.Matrix) (*tensor.Matrix, error) {
	return c.backward(ws, id, grad, nil, func(int) (w, b []float64) { return c.weight.Grad, c.bias.Grad })
}

// backwardSegmented implements segmentedLayer: one backward pass over the
// whole batch, with each sample's parameter gradients accumulated into the
// buffers of the row segment it belongs to. Samples are visited in
// ascending order, so segment s's buffers are byte-identical to a
// standalone Backward over rows [bounds[s], bounds[s+1]).
func (c *Conv2D) backwardSegmented(ws *Workspace, id int, grad *tensor.Matrix, bounds []int, segGrads [][][]float64) (*tensor.Matrix, error) {
	return c.backward(ws, id, grad, bounds, func(s int) (w, b []float64) { return segGrads[s][0], segGrads[s][1] })
}

// backward is the shared gradient computation. sink maps a segment index
// to the filter and bias gradient buffers; bounds is nil for the
// unsegmented path (one segment spanning the batch).
func (c *Conv2D) backward(ws *Workspace, id int, grad *tensor.Matrix, bounds []int, sink func(s int) (w, b []float64)) (*tensor.Matrix, error) {
	if c.lastInput == nil {
		return nil, fmt.Errorf("nn: Conv2D.Backward before Forward")
	}
	if grad.Rows != c.lastInput.Rows || grad.Cols != c.OutputSize() {
		return nil, fmt.Errorf("%w: Conv2D.Backward got (%d,%d), want (%d,%d)",
			ErrShape, grad.Rows, grad.Cols, c.lastInput.Rows, c.OutputSize())
	}
	// dX is accumulated into by col2im: zeroed checkout required.
	dx := ws.matrixZeroed(id, wsDX, c.lastInput.Rows, c.lastInput.Cols)
	spatial := c.OutH * c.OutW
	colRows := c.InC * c.K * c.K
	// dcols is zeroed per sample inside the loop, so a stale checkout is
	// fine.
	dcols := ws.matrix(id, wsDCols, colRows, spatial)
	seg := 0
	gw, bg := sink(0)
	for n := 0; n < grad.Rows; n++ {
		if bounds != nil {
			for n >= bounds[seg+1] {
				seg++
				gw, bg = sink(seg)
			}
		}
		base := n * colRows
		gRow := grad.Row(n)
		for i := range dcols.Data {
			dcols.Data[i] = 0
		}
		for oc := 0; oc < c.OutC; oc++ {
			g := gRow[oc*spatial : (oc+1)*spatial]
			// Bias gradient: sequential (bit-stable) sum over spatial
			// positions.
			var gsum float64
			for _, gv := range g {
				gsum += gv
			}
			bg[oc] += gsum
			w := c.weight.W[oc*colRows : (oc+1)*colRows]
			gwoc := gw[oc*colRows : (oc+1)*colRows]
			for r := 0; r < colRows; r++ {
				src := c.lastCols.Row(base + r)
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
		c.col2im(dcols, dx.Row(n))
	}
	return dx, nil
}

// Params returns the filter weights and biases.
func (c *Conv2D) Params() []*Param { return []*Param{c.weight, c.bias} }

// MaxPool2D is a non-overlapping max pooling layer over CHW-flattened rows.
type MaxPool2D struct {
	C, H, W int // input shape per sample
	Size    int // pooling window (and stride)

	OutH, OutW int

	// lastArgmax holds every sample's argmax input index per output cell in
	// one flat buffer: sample n's indices start at n*OutputSize().
	lastArgmax []int
	inRows     int
}

var _ Layer = (*MaxPool2D)(nil)
var _ arenaLayer = (*MaxPool2D)(nil)

// NewMaxPool2D builds a pooling layer. H and W must be divisible by size.
func NewMaxPool2D(c, h, w, size int) (*MaxPool2D, error) {
	if size <= 0 || h%size != 0 || w%size != 0 {
		return nil, fmt.Errorf("%w: MaxPool2D size %d does not divide %dx%d", ErrShape, size, h, w)
	}
	return &MaxPool2D{C: c, H: h, W: w, Size: size, OutH: h / size, OutW: w / size}, nil
}

// OutputSize returns the flattened per-sample output length.
func (p *MaxPool2D) OutputSize() int { return p.C * p.OutH * p.OutW }

// Forward takes the max over each pooling window.
func (p *MaxPool2D) Forward(x *tensor.Matrix) (*tensor.Matrix, error) {
	return p.forwardWs(nil, 0, x)
}

// forwardWs is Forward with optional workspace buffers (output and argmax
// are fully overwritten).
func (p *MaxPool2D) forwardWs(ws *Workspace, id int, x *tensor.Matrix) (*tensor.Matrix, error) {
	if x.Cols != p.C*p.H*p.W {
		return nil, fmt.Errorf("%w: MaxPool2D expects %d inputs, got %d", ErrShape, p.C*p.H*p.W, x.Cols)
	}
	p.inRows = x.Rows
	p.lastArgmax = ws.intSlice(id, wsArgmax, x.Rows*p.OutputSize())
	out := ws.matrix(id, wsFwd, x.Rows, p.OutputSize())
	for n := 0; n < x.Rows; n++ {
		sample := x.Row(n)
		oRow := out.Row(n)
		argmax := p.lastArgmax[n*p.OutputSize() : (n+1)*p.OutputSize()]
		if p.Size == 2 {
			p.forward2x2(sample, oRow, argmax)
			continue
		}
		for c := 0; c < p.C; c++ {
			chOff := c * p.H * p.W
			for oi := 0; oi < p.OutH; oi++ {
				for oj := 0; oj < p.OutW; oj++ {
					best := math.Inf(-1)
					bestIdx := -1
					for di := 0; di < p.Size; di++ {
						for dj := 0; dj < p.Size; dj++ {
							idx := chOff + (oi*p.Size+di)*p.W + (oj*p.Size + dj)
							if v := sample[idx]; v > best {
								best, bestIdx = v, idx
							}
						}
					}
					outIdx := (c*p.OutH+oi)*p.OutW + oj
					oRow[outIdx] = best
					argmax[outIdx] = bestIdx
				}
			}
		}
	}
	return out, nil
}

// forward2x2 is the unrolled pooling pass for the ubiquitous 2x2 window:
// the four candidates are compared in the exact (di,dj) order of the
// generic loop — same strict-greater tie-breaking, same argmax — so the
// specialization is byte-identical, only branch- and index-cheaper.
func (p *MaxPool2D) forward2x2(sample, oRow []float64, argmax []int) {
	for c := 0; c < p.C; c++ {
		chOff := c * p.H * p.W
		for oi := 0; oi < p.OutH; oi++ {
			top := chOff + 2*oi*p.W
			bot := top + p.W
			outBase := (c*p.OutH + oi) * p.OutW
			for oj := 0; oj < p.OutW; oj++ {
				i0 := top + 2*oj
				i2 := bot + 2*oj
				// Start from -Inf like the generic loop so NaN candidates
				// lose every strict-greater comparison identically.
				best, bestIdx := math.Inf(-1), -1
				if v := sample[i0]; v > best {
					best, bestIdx = v, i0
				}
				if v := sample[i0+1]; v > best {
					best, bestIdx = v, i0+1
				}
				if v := sample[i2]; v > best {
					best, bestIdx = v, i2
				}
				if v := sample[i2+1]; v > best {
					best, bestIdx = v, i2+1
				}
				oRow[outBase+oj] = best
				argmax[outBase+oj] = bestIdx
			}
		}
	}
}

// Backward routes each output gradient to its argmax input position.
func (p *MaxPool2D) Backward(grad *tensor.Matrix) (*tensor.Matrix, error) {
	return p.backwardWs(nil, 0, grad)
}

// backwardWs is Backward with an optional workspace buffer (dX is an
// accumulation target: zeroed checkout).
func (p *MaxPool2D) backwardWs(ws *Workspace, id int, grad *tensor.Matrix) (*tensor.Matrix, error) {
	if p.lastArgmax == nil {
		return nil, fmt.Errorf("nn: MaxPool2D.Backward before Forward")
	}
	if grad.Rows != p.inRows || grad.Cols != p.OutputSize() {
		return nil, fmt.Errorf("%w: MaxPool2D.Backward got (%d,%d), want (%d,%d)",
			ErrShape, grad.Rows, grad.Cols, p.inRows, p.OutputSize())
	}
	dx := ws.matrixZeroed(id, wsDX, p.inRows, p.C*p.H*p.W)
	for n := 0; n < grad.Rows; n++ {
		gRow := grad.Row(n)
		dRow := dx.Row(n)
		argmax := p.lastArgmax[n*p.OutputSize() : (n+1)*p.OutputSize()]
		for outIdx, inIdx := range argmax {
			dRow[inIdx] += gRow[outIdx]
		}
	}
	return dx, nil
}

// Params returns nil: pooling is parameter-free.
func (p *MaxPool2D) Params() []*Param { return nil }

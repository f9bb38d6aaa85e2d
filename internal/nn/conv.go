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
	// cols stacks every sample's im2col columns of the last forward pass
	// into one matrix: sample n's (InC*K*K) rows start at n*InC*K*K. One
	// buffer for the whole batch replaces the per-sample matrix allocations
	// that used to dominate the allocation profile.
	cols tensor.Matrix
	// out and dx are the pass's output and input gradient; dcols is one
	// sample's im2col gradient, rewritten per sample (never grown by a
	// model's first layer, which computes no input gradient).
	out, dx, dcols tensor.Matrix
	// plane is one sample's zero-bordered plane (see planeSize): the input
	// in forward (zeroed once per pass, interior rewritten per sample), the
	// input gradient in backward (cleared per sample).
	plane []float64
	// nz holds backward's per-filter offsets, then one sample's nonzero
	// output-gradient positions (rewritten per sample).
	nz []int
	// segs[s] is where im2col segment s — column row (ch, ki, kj), output
	// row oi, in that order — starts in the zero-bordered plane (see
	// planeSize); the segment is cols[s*OutW:][:OutW]. It depends only on
	// the shape, so NewConv2D builds it once.
	segs []int
}

var _ Layer = (*Conv2D)(nil)
var _ segmentedLayer = (*Conv2D)(nil)

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
	// Output (oi, oj) of column row (ch, ki, kj) reads plane position
	// (oi+ki, oj+kj) of block ch.
	ph, pw := inH+2*pad, inW+2*pad
	c.segs = make([]int, 0, inC*k*k*outH)
	for ch := 0; ch < inC; ch++ {
		for ki := 0; ki < k; ki++ {
			for kj := 0; kj < k; kj++ {
				for oi := 0; oi < outH; oi++ {
					c.segs = append(c.segs, (ch*ph+ki+oi)*pw+kj)
				}
			}
		}
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

// planeSize is the length of the zero-bordered plane that im2colInto and
// col2im stage a sample through: InC blocks of (InH+2Pad)×(InW+2Pad), with
// channel ch's values in the interior of block ch. The input a column
// position reads is always inside the plane — padding reads the border —
// so every column-row segment is one contiguous run of it, with no bounds
// logic and no runs of zeros to clear.
func (c *Conv2D) planeSize() int { return c.InC * (c.InH + 2*c.Pad) * (c.InW + 2*c.Pad) }

// im2colInto unrolls one CHW sample into cols, its InC*K*K rows of
// OutH*OutW positions, through plane, whose border the caller keeps at +0.
// Every element of cols is written; padding positions read the border's +0,
// the value the allocate-per-sample implementation's zeroed columns held,
// so a stale buffer produces byte-identical columns.
func (c *Conv2D) im2colInto(cols, plane, sample []float64) {
	inC, inH, inW, pad, outW := c.InC, c.InH, c.InW, c.Pad, c.OutW
	ph, pw := inH+2*pad, inW+2*pad
	s := 0
	for ch := 0; ch < inC; ch++ {
		p := (ch*ph+pad)*pw + pad
		for i := 0; i < inH; i++ {
			dst := plane[p:][:inW]
			for j, v := range sample[s:][:len(dst)] {
				dst[j] = v
			}
			p += pw
			s += inW
		}
	}
	for s, p := range c.segs {
		dst := cols[s*outW:][:outW]
		for j, v := range plane[p:][:len(dst)] {
			dst[j] = v
		}
	}
}

// col2im scatters a (InC*K*K) x (OutH*OutW) gradient back into sample, a
// CHW input-gradient row, which it overwrites. It accumulates into plane
// from +0 in the order the bounds-checked scatter into a zeroed sample used
// — (ch, ki, kj, oi, oj) ascending, the order of segs — and then copies the
// interior out, so each input position receives the same additions in the
// same order; the border's sums, which belong to padding, are dropped.
func (c *Conv2D) col2im(dcols, plane, sample []float64) {
	inC, inH, inW, pad, outW := c.InC, c.InH, c.InW, c.Pad, c.OutW
	ph, pw := inH+2*pad, inW+2*pad
	clear(plane)
	for s, p := range c.segs {
		dst := plane[p:][:outW]
		for j, v := range dcols[s*outW:][:len(dst)] {
			dst[j] += v
		}
	}
	s := 0
	for ch := 0; ch < inC; ch++ {
		p := (ch*ph+pad)*pw + pad
		for i := 0; i < inH; i++ {
			dst := sample[s:][:inW]
			for j, v := range plane[p:][:len(dst)] {
				dst[j] = v
			}
			p += pw
			s += inW
		}
	}
}

// Forward convolves each sample in the batch. The output and the stacked
// im2col columns are fully overwritten.
func (c *Conv2D) Forward(x *tensor.Matrix) (*tensor.Matrix, error) {
	if x.Cols != c.InC*c.InH*c.InW {
		return nil, fmt.Errorf("%w: Conv2D expects %d inputs, got %d", ErrShape, c.InC*c.InH*c.InW, x.Cols)
	}
	c.lastInput = x
	colRows := c.InC * c.K * c.K
	spatial := c.OutH * c.OutW
	cols := reshape(&c.cols, x.Rows*colRows, spatial)
	out := reshape(&c.out, x.Rows, c.OutputSize())
	// im2colInto writes only the plane's interior: one zeroing per pass
	// keeps the border at +0 for every sample.
	c.plane = grow(c.plane, c.planeSize())
	clear(c.plane)
	for n := 0; n < x.Rows; n++ {
		base := n * colRows
		sCols := cols.Data[base*spatial : (base+colRows)*spatial]
		c.im2colInto(sCols, c.plane, x.Row(n))
		oRow := out.Row(n)
		for oc := 0; oc < c.OutC; oc++ {
			convFilterForward(oRow[oc*spatial:(oc+1)*spatial], c.weight.W[oc*colRows:(oc+1)*colRows], c.bias.W[oc], sCols)
		}
	}
	return out, nil
}

// convFilterForward writes one filter's output plane dst: position p is
// seeded from the bias b and adds w[r]*cols[r][p] for r ascending, skipping
// zero weights (so a zero weight never turns a ±Inf or NaN column into
// NaN). cols holds len(w) rows of len(dst) values. Eight positions are
// carried in registers at a time; each one's addition sequence is the
// single-position loop's.
func convFilterForward(dst, w []float64, b float64, cols []float64) {
	spatial := len(dst)
	p := 0
	for ; p+8 <= spatial; p += 8 {
		a0, a1, a2, a3, a4, a5, a6, a7 := b, b, b, b, b, b, b, b
		for r, wv := range w {
			if wv == 0 {
				continue
			}
			s := cols[r*spatial+p : r*spatial+p+8]
			a0 += wv * s[0]
			a1 += wv * s[1]
			a2 += wv * s[2]
			a3 += wv * s[3]
			a4 += wv * s[4]
			a5 += wv * s[5]
			a6 += wv * s[6]
			a7 += wv * s[7]
		}
		d := dst[p : p+8]
		d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = a0, a1, a2, a3, a4, a5, a6, a7
	}
	for ; p < spatial; p++ {
		a := b
		for r, wv := range w {
			if wv == 0 {
				continue
			}
			a += wv * cols[r*spatial+p]
		}
		dst[p] = a
	}
}

// Backward accumulates filter/bias gradients and returns the input gradient.
func (c *Conv2D) Backward(grad *tensor.Matrix) (*tensor.Matrix, error) {
	return c.backward(grad, nil, func(int) (w, b []float64) { return c.weight.Grad, c.bias.Grad }, true)
}

// backwardSegmented implements segmentedLayer: one backward pass over the
// whole batch, with each sample's parameter gradients accumulated into the
// buffers of the row segment it belongs to. Samples are visited in
// ascending order, so segment s's buffers are byte-identical to a
// standalone Backward over rows [bounds[s], bounds[s+1]).
func (c *Conv2D) backwardSegmented(grad *tensor.Matrix, bounds []int, segGrads [][][]float64, needDX bool) (*tensor.Matrix, error) {
	return c.backward(grad, bounds, func(s int) (w, b []float64) { return segGrads[s][0], segGrads[s][1] }, needDX)
}

// backward is the shared gradient computation. sink maps a segment index
// to the filter and bias gradient buffers; bounds is nil for the
// unsegmented path (one segment spanning the batch). Without needDX the
// input gradient is not computed and backward returns a nil matrix.
func (c *Conv2D) backward(grad *tensor.Matrix, bounds []int, sink func(s int) (w, b []float64), needDX bool) (*tensor.Matrix, error) {
	if c.lastInput == nil {
		return nil, fmt.Errorf("nn: Conv2D.Backward before Forward")
	}
	if grad.Rows != c.lastInput.Rows || grad.Cols != c.OutputSize() {
		return nil, fmt.Errorf("%w: Conv2D.Backward got (%d,%d), want (%d,%d)",
			ErrShape, grad.Rows, grad.Cols, c.lastInput.Rows, c.OutputSize())
	}
	spatial := c.OutH * c.OutW
	colRows := c.InC * c.K * c.K
	var dx, dcols *tensor.Matrix
	var finiteW bool
	if needDX {
		// dX, dcols and the plane (sized by Forward) are fully overwritten
		// (col2im clears the plane per sample), so stale buffers are fine.
		dx = reshape(&c.dx, c.lastInput.Rows, c.lastInput.Cols)
		dcols = reshape(&c.dcols, colRows, spatial)
		finiteW = tensor.AllFinite(c.weight.W)
	}
	// Filter oc's nonzero gradient positions are nz[off[oc]:off[oc+1]],
	// rewritten per sample.
	c.nz = grow(c.nz, c.OutC+1+c.OutC*spatial)
	off, nz := c.nz[:c.OutC+1], c.nz[c.OutC+1:]
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
		sCols := c.cols.Data[base*spatial : (base+colRows)*spatial]
		gRow := grad.Row(n)
		k := 0
		for oc := 0; oc < c.OutC; oc++ {
			// Bias gradient: sequential (bit-stable) sum over spatial
			// positions, in the pass that gathers the nonzero ones. The
			// gather is branch-free: p is always written and kept only
			// when gv is nonzero.
			off[oc] = k
			var gsum float64
			for p, gv := range gRow[oc*spatial : (oc+1)*spatial] {
				gsum += gv
				nz[k] = p
				if gv != 0 {
					k++
				}
			}
			bg[oc] += gsum
		}
		off[c.OutC] = k
		// Gathering pays while at most half the entries are nonzero. The
		// columns hold the sample's values and padding zeros.
		sparse := 2*k <= len(gRow)
		finiteIn := sparse && tensor.AllFinite(c.lastInput.Row(n))
		for oc := 0; oc < c.OutC; oc++ {
			g := gRow[oc*spatial : (oc+1)*spatial]
			gwoc := gw[oc*colRows : (oc+1)*colRows]
			if finiteIn {
				convFilterWeightGradAt(gwoc, g, nz[off[oc]:off[oc+1]], sCols)
			} else {
				convFilterWeightGrad(gwoc, g, sCols)
			}
		}
		if needDX {
			if sparse && finiteW {
				c.colsGradAt(dcols.Data, gRow, off, nz)
			} else {
				c.colsGrad(dcols.Data, gRow)
			}
			c.col2im(dcols.Data, c.plane, dx.Row(n))
		}
	}
	return dx, nil
}

// The zero-skipping kernels below visit only the gradient positions whose
// g[p] is nonzero (NaN and ±Inf included). That is exact when the other
// operand is finite: a skipped term is then ±0, and adding ±0 to a sum
// that starts at +0 never changes it (such a sum is never −0). A NaN or
// ±Inf operand needs the dense kernels, because 0·Inf is NaN.

// convFilterWeightGradAt is convFilterWeightGrad over the ascending
// positions nz only, for finite cols: each chain still starts at +0, runs
// in ascending p and is added to gw[r] once, even when nz is empty.
func convFilterWeightGradAt(gw, g []float64, nz []int, cols []float64) {
	spatial := len(g)
	r := 0
	for ; r+4 <= len(gw); r += 4 {
		s0 := cols[r*spatial : (r+1)*spatial]
		s1 := cols[(r+1)*spatial : (r+2)*spatial]
		s2 := cols[(r+2)*spatial : (r+3)*spatial]
		s3 := cols[(r+3)*spatial : (r+4)*spatial]
		var w0, w1, w2, w3 float64
		for _, p := range nz {
			gv := g[p]
			w0 += gv * s0[p]
			w1 += gv * s1[p]
			w2 += gv * s2[p]
			w3 += gv * s3[p]
		}
		gw[r] += w0
		gw[r+1] += w1
		gw[r+2] += w2
		gw[r+3] += w3
	}
	for ; r < len(gw); r++ {
		s := cols[r*spatial : (r+1)*spatial]
		var w0 float64
		for _, p := range nz {
			w0 += g[p] * s[p]
		}
		gw[r] += w0
	}
}

// colsGradAt is colsGrad over each filter's nonzero positions
// nz[off[oc]:off[oc+1]], for finite weights: every dcols[r][p] is still
// summed from +0 over filters in ascending order.
func (c *Conv2D) colsGradAt(dcols, gRow []float64, off, nz []int) {
	spatial := c.OutH * c.OutW
	colRows := c.InC * c.K * c.K
	clear(dcols)
	for oc := 0; oc < c.OutC; oc++ {
		g := gRow[oc*spatial:][:spatial]
		w := c.weight.W[oc*colRows:][:colRows]
		for _, p := range nz[off[oc]:off[oc+1]] {
			gv := g[p]
			d := dcols[p:]
			for r, wv := range w {
				d[r*spatial] += gv * wv
			}
		}
	}
}

// convFilterWeightGrad adds one sample's gradient for one filter into gw:
// gw[r] += Σ_p g[p]*cols[r][p], the sum taken from +0 in ascending p and
// added to gw[r] once. Four column rows run at a time, as four independent
// chains sharing each g[p] load; cols holds len(gw) rows of len(g) values.
func convFilterWeightGrad(gw, g, cols []float64) {
	spatial := len(g)
	r := 0
	for ; r+4 <= len(gw); r += 4 {
		s0 := cols[r*spatial : (r+1)*spatial]
		s1 := cols[(r+1)*spatial : (r+2)*spatial]
		s2 := cols[(r+2)*spatial : (r+3)*spatial]
		s3 := cols[(r+3)*spatial : (r+4)*spatial]
		var w0, w1, w2, w3 float64
		for p, gv := range g {
			w0 += gv * s0[p]
			w1 += gv * s1[p]
			w2 += gv * s2[p]
			w3 += gv * s3[p]
		}
		gw[r] += w0
		gw[r+1] += w1
		gw[r+2] += w2
		gw[r+3] += w3
	}
	for ; r < len(gw); r++ {
		s := cols[r*spatial : (r+1)*spatial]
		var w0 float64
		for p, gv := range g {
			w0 += gv * s[p]
		}
		gw[r] += w0
	}
}

// colsGrad overwrites dcols (colRows rows of OutH*OutW) with one sample's
// im2col gradient: dcols[r][p] = Σ_oc gRow[oc][p]*W[oc][r], summed from +0
// over filters in ascending order, four filters per pass through dcols.
func (c *Conv2D) colsGrad(dcols, gRow []float64) {
	spatial := c.OutH * c.OutW
	colRows := c.InC * c.K * c.K
	clear(dcols)
	oc := 0
	for ; oc+4 <= c.OutC; oc += 4 {
		g0 := gRow[oc*spatial:][:spatial]
		g1 := gRow[(oc+1)*spatial:][:spatial]
		g2 := gRow[(oc+2)*spatial:][:spatial]
		g3 := gRow[(oc+3)*spatial:][:spatial]
		w := c.weight.W[oc*colRows : (oc+4)*colRows]
		for r := 0; r < colRows; r++ {
			w0, w1, w2, w3 := w[r], w[colRows+r], w[2*colRows+r], w[3*colRows+r]
			d := dcols[r*spatial:][:spatial]
			for p, t := range d {
				t += g0[p] * w0
				t += g1[p] * w1
				t += g2[p] * w2
				t += g3[p] * w3
				d[p] = t
			}
		}
	}
	for ; oc < c.OutC; oc++ {
		g := gRow[oc*spatial:][:spatial]
		w := c.weight.W[oc*colRows : (oc+1)*colRows]
		for r, wv := range w {
			d := dcols[r*spatial:][:spatial]
			for p := range d {
				d[p] += g[p] * wv
			}
		}
	}
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
	out, dx    tensor.Matrix
}

var _ Layer = (*MaxPool2D)(nil)

// NewMaxPool2D builds a pooling layer. H and W must be divisible by size.
func NewMaxPool2D(c, h, w, size int) (*MaxPool2D, error) {
	if size <= 0 || h%size != 0 || w%size != 0 {
		return nil, fmt.Errorf("%w: MaxPool2D size %d does not divide %dx%d", ErrShape, size, h, w)
	}
	return &MaxPool2D{C: c, H: h, W: w, Size: size, OutH: h / size, OutW: w / size}, nil
}

// OutputSize returns the flattened per-sample output length.
func (p *MaxPool2D) OutputSize() int { return p.C * p.OutH * p.OutW }

// Forward takes the max over each pooling window. The output and the argmax
// are fully overwritten.
func (p *MaxPool2D) Forward(x *tensor.Matrix) (*tensor.Matrix, error) {
	if x.Cols != p.C*p.H*p.W {
		return nil, fmt.Errorf("%w: MaxPool2D expects %d inputs, got %d", ErrShape, p.C*p.H*p.W, x.Cols)
	}
	p.inRows = x.Rows
	p.lastArgmax = grow(p.lastArgmax, x.Rows*p.OutputSize())
	out := reshape(&p.out, x.Rows, p.OutputSize())
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
					if bestIdx < 0 {
						best, bestIdx = p.noCandidate(sample, chOff+oi*p.Size*p.W+oj*p.Size)
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

// forward2x2 is the pooling pass for the ubiquitous 2x2 window. A CHW
// sample is a (C·H)×W image whose window row r (channel r/OutH, output row
// r%OutH) reads image rows 2r and 2r+1, so pool2x2 covers every channel in
// one loop over window rows. A window with no candidate above −Inf is rare:
// pool2x2 leaves its argmax at −1 and reports it, and it is resolved here,
// after the pass.
func (p *MaxPool2D) forward2x2(sample, oRow []float64, argmax []int) {
	if pool2x2(oRow, argmax, sample, p.W) < 0 {
		for k, i := range argmax {
			if i < 0 {
				oRow[k], argmax[k] = p.noCandidate(sample, 2*(k/p.OutW)*p.W+2*(k%p.OutW))
			}
		}
	}
}

// pool2x2 writes every 2x2 window's maximum to o and its input index to a,
// for the windows of sample read as rows of width w; window k of o is in
// window row k/(w/2). The four candidates are compared in the generic
// loop's (di,dj) order with the same strict-greater tie-breaking, so the
// output is byte-identical to it. The running maximum is carried as its
// bits next to the argmax, and every candidate's bits are taken before the
// comparisons, so each comparison selects two integers and the compiler
// emits conditional moves, not branches that follow the activations'
// signs. It returns a negative value when some window had no candidate
// above −Inf (argmax −1).
func pool2x2(o []float64, a []int, sample []float64, w int) (miss int) {
	negInf := math.Float64bits(math.Inf(-1))
	ow := w / 2
	for top, k := 0, 0; k+ow <= len(o); top, k = top+2*w, k+ow {
		t := sample[top:][:2*ow]
		d := sample[top+w:][:len(t)]
		or, ar := o[k:][:ow], a[k:][:ow]
		for oj := range or {
			j := 2 * oj
			v0, v1, v2, v3 := t[j], t[j+1], d[j], d[j+1]
			b0, b1, b2, b3 := math.Float64bits(v0), math.Float64bits(v1), math.Float64bits(v2), math.Float64bits(v3)
			// Start from -Inf like the generic loop so NaN candidates lose
			// every strict-greater comparison identically.
			i := top + j
			best, bestIdx := negInf, -1
			if v0 > math.Float64frombits(best) {
				best, bestIdx = b0, i
			}
			if v1 > math.Float64frombits(best) {
				best, bestIdx = b1, i+1
			}
			if v2 > math.Float64frombits(best) {
				best, bestIdx = b2, i+w
			}
			if v3 > math.Float64frombits(best) {
				best, bestIdx = b3, i+w+1
			}
			or[oj], ar[oj] = math.Float64frombits(best), bestIdx
			miss |= bestIdx
		}
	}
	return miss
}

// noCandidate resolves the window whose top-left input is first when no
// candidate is above −Inf, which leaves the strict-greater scan without an
// argmax: the first NaN in (di, dj) order wins, so the NaN reaches the
// output; a window of −Inf alone yields its first element.
func (p *MaxPool2D) noCandidate(sample []float64, first int) (float64, int) {
	for di := 0; di < p.Size; di++ {
		for dj := 0; dj < p.Size; dj++ {
			idx := first + di*p.W + dj
			if v := sample[idx]; math.IsNaN(v) {
				return v, idx
			}
		}
	}
	return sample[first], first
}

// Backward routes each output gradient to its argmax input position. dX is
// an accumulation target, so its buffer is zeroed first.
func (p *MaxPool2D) Backward(grad *tensor.Matrix) (*tensor.Matrix, error) {
	if p.lastArgmax == nil {
		return nil, fmt.Errorf("nn: MaxPool2D.Backward before Forward")
	}
	if grad.Rows != p.inRows || grad.Cols != p.OutputSize() {
		return nil, fmt.Errorf("%w: MaxPool2D.Backward got (%d,%d), want (%d,%d)",
			ErrShape, grad.Rows, grad.Cols, p.inRows, p.OutputSize())
	}
	dx := reshapeZeroed(&p.dx, p.inRows, p.C*p.H*p.W)
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

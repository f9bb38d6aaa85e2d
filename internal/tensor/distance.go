package tensor

import (
	"fmt"
	"math"
	"math/bits"

	"github.com/signguard/signguard/internal/parallel"
)

// This file holds the one squared-distance kernel behind every
// one-to-many and all-pairs distance scan (stats.PairwiseDistancesWorkers
// and through it Krum, Multi-Krum, Bulyan, MoM and mean-shift; the
// Min-Max / Min-Sum attacks; Weiszfeld; SignGuard's distance feature).
//
// One pass measures a against four vectors at once with four independent
// accumulators, so the adds of different pairs overlap instead of each
// pair waiting out one serial add chain. Each accumulator still starts at
// +0 and gains its squares in ascending coordinate order, so every result
// is Float64bits-identical to SquaredDistance.
//
// With support bitmaps the pass visits only the coordinates where one of
// the five vectors is non-zero. That is exact, not approximate: a skipped
// term is (±0 − ±0)² = +0, and s + (+0) = s for every value the
// accumulator can hold — it starts at +0 and only ever gains squares, so
// it is never −0, and NaN and +Inf absorb the addend. The bitmap test is
// x != 0 rather than "is finite and non-zero" so that NaN and ±Inf are
// always visited (they are what a hostile row must propagate) and ±0
// never is.

// SupportWords is the length of the support bitmap of a d-vector.
func SupportWords(d int) int { return (d + 63) / 64 }

// fillSupport writes v's support bitmap into dst (SupportWords(len(v))
// words): bit c%64 of word c/64 is set exactly when v[c] != 0. Every word
// is overwritten; bits past len(v) are left clear.
func fillSupport(dst []uint64, v []float64) {
	const magnitude = 1<<63 - 1
	for k := range dst {
		chunk := v[k*64 : min(k*64+64, len(v))]
		var w uint64
		// Last coordinate first, so each one shifts the rest up and the
		// first lands on bit 0. Branch-free x != 0: the bits below the
		// sign are zero for ±0 only, and adding 2⁶³−1 to anything
		// non-zero carries into the top bit.
		for c := len(chunk) - 1; c >= 0; c-- {
			w = w<<1 | (math.Float64bits(chunk[c])&magnitude+magnitude)>>63
		}
		dst[k] = w
	}
}

// SquaredDistancesTo sets dst[k] = ‖a − bs[k]‖² for every k, each entry
// bit-identical to SquaredDistance(a, bs[k]).
func SquaredDistancesTo(dst, a []float64, bs [][]float64) error {
	if len(dst) != len(bs) {
		return fmt.Errorf("%w: SquaredDistancesTo(%d outputs, %d vectors)", ErrDimensionMismatch, len(dst), len(bs))
	}
	for k, b := range bs {
		if len(b) != len(a) {
			return fmt.Errorf("%w: SquaredDistancesTo vector %d has %d dims, want %d", ErrDimensionMismatch, k, len(b), len(a))
		}
	}
	squaredDistances(dst, a, bs, nil, nil)
	return nil
}

// PairwiseSquaredDistances sets out[i][j] = ‖vs[i] − vs[j]‖² for every
// j > i of the n×n matrix out, each entry bit-identical to
// SquaredDistance(vs[i], vs[j]) for any worker count; the diagonal and the
// lower triangle are not touched. Rows are strided across workers — row i
// costs n-i-1 distances, so striding balances the load where contiguous
// chunks would not. support is scratch for the n support bitmaps:
// len(vs)·SupportWords(d) words whose previous content is ignored.
func PairwiseSquaredDistances(out, vs [][]float64, support []uint64, workers int) error {
	n := len(vs)
	if n == 0 {
		return nil
	}
	d := len(vs[0])
	words := SupportWords(d)
	if len(out) != n || len(support) != n*words {
		return fmt.Errorf("%w: PairwiseSquaredDistances(%d rows out, %d support words, %d vectors of %d dims)",
			ErrDimensionMismatch, len(out), len(support), n, d)
	}
	for i := range vs {
		if len(vs[i]) != d || len(out[i]) != n {
			return fmt.Errorf("%w: PairwiseSquaredDistances row %d has %d dims and %d outputs, want %d and %d",
				ErrDimensionMismatch, i, len(vs[i]), len(out[i]), d, n)
		}
	}
	parallel.For(workers, n, func(_, start, end int) {
		for i := start; i < end; i++ {
			fillSupport(support[i*words:(i+1)*words], vs[i])
		}
	})
	parallel.ForStrided(workers, n, func(_, i int) {
		squaredDistances(out[i][i+1:], vs[i], vs[i+1:], support[i*words:(i+1)*words], support[(i+1)*words:])
	})
	return nil
}

// unionWords is how many words of a block's support union squaredDistances
// builds at a time: the union lives on the stack, and the kernel runs once
// per unionWords·64 coordinates with its sums carried across the runs.
const unionWords = 64

// squaredDistances sets dst[k] = ‖a − bs[k]‖²; every vector has a's
// length. It walks bs four at a time: a short last block repeats its final
// vector to fill the kernel's width — the duplicate adds nothing to the
// block's support — and the surplus sums are dropped. sa == nil selects the
// dense pass; otherwise sa is a's support bitmap and sbs holds those of bs
// back to back.
func squaredDistances(dst, a []float64, bs [][]float64, sa, sbs []uint64) {
	d, words, last := len(a), len(sa), len(bs)-1
	var union [unionWords]uint64
	for k := 0; k <= last; k += 4 {
		k1, k2, k3 := min(k+1, last), min(k+2, last), min(k+3, last)
		var r [4]float64
		for lo := 0; lo < d; lo += 64 * unionWords {
			hi := min(lo+64*unionWords, d)
			var u []uint64
			if sa != nil {
				w := lo / 64
				u = union[:SupportWords(hi-lo)]
				s0, s1, s2, s3 := sbs[k*words+w:], sbs[k1*words+w:], sbs[k2*words+w:], sbs[k3*words+w:]
				for i, x := range sa[w : w+len(u)] {
					u[i] = x | s0[i] | s1[i] | s2[i] | s3[i]
				}
			}
			r[0], r[1], r[2], r[3] = sqDist4(a[lo:hi], bs[k][lo:hi], bs[k1][lo:hi], bs[k2][lo:hi], bs[k3][lo:hi], u, r[0], r[1], r[2], r[3])
		}
		copy(dst[k:], r[:])
	}
}

// sqDist4 adds ‖a − b0‖² … ‖a − b3‖² to r0 … r3; all five vectors have
// a's length. With u == nil every coordinate is visited; otherwise u is
// the union of the five support bitmaps and only its set coordinates are.
// The choice is made per 64-coordinate word from the data: a word that is
// all ones (always, for dense inputs) takes a plain loop, any other word a
// trailing-zeros walk over its set bits.
func sqDist4(a, b0, b1, b2, b3 []float64, u []uint64, r0, r1, r2, r3 float64) (float64, float64, float64, float64) {
	d := len(a)
	b0, b1, b2, b3 = b0[:d], b1[:d], b2[:d], b3[:d]
	for k, base := 0, 0; base < d; k, base = k+1, base+64 {
		w := ^uint64(0)
		if u != nil {
			w = u[k]
		}
		if w == ^uint64(0) {
			for c, end := base, min(base+64, d); c < end; c++ {
				x := a[c]
				d0, d1, d2, d3 := x-b0[c], x-b1[c], x-b2[c], x-b3[c]
				r0 += d0 * d0
				r1 += d1 * d1
				r2 += d2 * d2
				r3 += d3 * d3
			}
			continue
		}
		for ; w != 0; w &= w - 1 {
			c := base + bits.TrailingZeros64(w)
			x := a[c]
			d0, d1, d2, d3 := x-b0[c], x-b1[c], x-b2[c], x-b3[c]
			r0 += d0 * d0
			r1 += d1 * d1
			r2 += d2 * d2
			r3 += d3 * d3
		}
	}
	return r0, r1, r2, r3
}

package cluster

import (
	"encoding/binary"
	"math"
	"testing"

	"github.com/signguard/signguard/internal/stats"
	"github.com/signguard/signguard/internal/tensor"
)

// decodePoints deterministically reinterprets raw fuzz bytes as an n×dim
// point set: every 8 bytes is one float64 coordinate (any bit pattern, so
// NaN and ±Inf payloads arise naturally), rows are filled in order.
func decodePoints(data []byte, dim int) [][]float64 {
	if dim < 1 {
		dim = 1
	}
	vals := len(data) / 8
	n := vals / dim
	pts := make([][]float64, 0, n)
	for i := 0; i < n; i++ {
		row := make([]float64, dim)
		for j := 0; j < dim; j++ {
			off := (i*dim + j) * 8
			row[j] = math.Float64frombits(binary.LittleEndian.Uint64(data[off : off+8]))
		}
		pts = append(pts, row)
	}
	return pts
}

// checkResult asserts the invariants every successful clustering result
// must satisfy: non-nil, consistent lengths, labels in range, sizes
// consistent with labels, and a dereferenceable Largest().
func checkResult(t *testing.T, res *Result, n int) {
	t.Helper()
	if res == nil {
		t.Fatal("nil result with nil error")
	}
	if len(res.Labels) != n {
		t.Fatalf("got %d labels for %d points", len(res.Labels), n)
	}
	if len(res.Centers) != len(res.Sizes) {
		t.Fatalf("len(Centers)=%d != len(Sizes)=%d", len(res.Centers), len(res.Sizes))
	}
	counts := make([]int, len(res.Sizes))
	for _, l := range res.Labels {
		if l < 0 || l >= len(res.Centers) {
			t.Fatalf("label %d out of [0,%d)", l, len(res.Centers))
		}
		counts[l]++
	}
	for c, s := range res.Sizes {
		if counts[c] != s {
			t.Fatalf("Sizes[%d]=%d but %d points carry the label", c, s, counts[c])
		}
	}
	if n > 0 {
		largest := res.Largest()
		if largest < 0 || largest >= len(res.Sizes) {
			t.Fatalf("Largest()=%d out of range with %d points", largest, n)
		}
		if len(res.Members(largest)) == 0 {
			t.Fatal("largest cluster has no members")
		}
	}
}

// FuzzKMeansCluster feeds arbitrary bit patterns — including hostile
// NaN/±Inf coordinates — through KMeans and asserts it either errors or
// returns a structurally valid result, never panics, never (nil, nil).
func FuzzKMeansCluster(f *testing.F) {
	f.Add([]byte{}, uint8(2), uint8(2), int64(1))
	seed := make([]byte, 6*8)
	f.Add(seed, uint8(2), uint8(2), int64(7))
	nan := make([]byte, 4*8)
	binary.LittleEndian.PutUint64(nan, math.Float64bits(math.NaN()))
	f.Add(nan, uint8(2), uint8(1), int64(3))
	f.Fuzz(func(t *testing.T, data []byte, k, dim uint8, rngSeed int64) {
		pts := decodePoints(data, int(dim%8))
		res, err := KMeans(tensor.NewRNG(rngSeed), pts, int(k%16))
		if err != nil {
			return
		}
		checkResult(t, res, len(pts))
	})
}

// FuzzMeanShiftCluster is the Mean-Shift twin of FuzzKMeansCluster.
func FuzzMeanShiftCluster(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 6*8))
	inf := make([]byte, 4*8)
	binary.LittleEndian.PutUint64(inf, math.Float64bits(math.Inf(-1)))
	f.Add(inf)
	f.Fuzz(func(t *testing.T, data []byte) {
		pts := decodePoints(data, 3)
		if len(pts) > 64 {
			pts = pts[:64] // bound the O(n²) pairwise work per exec
		}
		res, err := MeanShift(pts, new(stats.Pairwise))
		if err != nil {
			return
		}
		checkResult(t, res, len(pts))
	})
}

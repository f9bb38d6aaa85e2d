package cluster

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/signguard/signguard/internal/tensor"
)

// twoBlobs returns two well-separated Gaussian clusters: nA points near
// (0,0) and nB points near (10,10).
func twoBlobs(seed int64, nA, nB int) [][]float64 {
	rng := tensor.NewRNG(seed)
	pts := make([][]float64, 0, nA+nB)
	for i := 0; i < nA; i++ {
		pts = append(pts, []float64{0.1 * rng.NormFloat64(), 0.1 * rng.NormFloat64()})
	}
	for i := 0; i < nB; i++ {
		pts = append(pts, []float64{10 + 0.1*rng.NormFloat64(), 10 + 0.1*rng.NormFloat64()})
	}
	return pts
}

func TestMeanShiftTwoBlobs(t *testing.T) {
	pts := twoBlobs(1, 30, 10)
	res, err := MeanShift(pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) != 2 {
		t.Fatalf("found %d clusters, want 2 (sizes %v)", len(res.Centers), res.Sizes)
	}
	largest := res.Largest()
	if res.Sizes[largest] != 30 {
		t.Errorf("largest cluster has %d members, want 30", res.Sizes[largest])
	}
	members := res.Members(largest)
	for _, i := range members {
		if i >= 30 {
			t.Errorf("blob-B point %d assigned to the majority cluster", i)
		}
	}
	if len(members) != 30 {
		t.Errorf("Members returned %d indices", len(members))
	}
}

func TestMeanShiftSingleCluster(t *testing.T) {
	pts := twoBlobs(2, 25, 0)
	// With the flat kernel a fringe point can form its own tiny mode; the
	// invariant that matters for SignGuard is that the dominant cluster
	// absorbs the bulk of a homogeneous blob.
	res, err := MeanShift(pts)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Sizes[res.Largest()]; got < 20 {
		t.Errorf("largest cluster has %d of 25 points", got)
	}
}

func TestMeanShiftIdenticalPoints(t *testing.T) {
	pts := [][]float64{{1, 2}, {1, 2}, {1, 2}}
	res, err := MeanShift(pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) != 1 || res.Sizes[0] != 3 {
		t.Errorf("identical points: %d clusters, sizes %v", len(res.Centers), res.Sizes)
	}
}

func TestMeanShiftErrors(t *testing.T) {
	if _, err := MeanShift(nil); err == nil {
		t.Error("accepted empty input")
	}
	if _, err := MeanShift([][]float64{{1}, {1, 2}}); err == nil {
		t.Error("accepted ragged input")
	}
}

func TestEstimateBandwidth(t *testing.T) {
	h, err := EstimateBandwidth([][]float64{{0}, {1}, {2}})
	if err != nil {
		t.Fatal(err)
	}
	if h <= 0 {
		t.Errorf("bandwidth = %v", h)
	}
	h, err = EstimateBandwidth([][]float64{{5}, {5}})
	if err != nil || h <= 0 {
		t.Errorf("identical-point bandwidth = %v, %v", h, err)
	}
	if _, err := EstimateBandwidth(nil); err == nil {
		t.Error("accepted empty input")
	}
}

func TestKMeansTwoBlobs(t *testing.T) {
	pts := twoBlobs(4, 28, 12)
	rng := tensor.NewRNG(9)
	res, err := KMeans(rng, pts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) != 2 {
		t.Fatalf("got %d centers", len(res.Centers))
	}
	if got := res.Sizes[res.Largest()]; got != 28 {
		t.Errorf("largest cluster = %d, want 28", got)
	}
}

func TestKMeansMoreClustersThanPoints(t *testing.T) {
	pts := [][]float64{{0, 0}, {1, 1}}
	res, err := KMeans(tensor.NewRNG(1), pts, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) != 2 {
		t.Errorf("K capped to %d, want 2", len(res.Centers))
	}
}

func TestKMeansErrors(t *testing.T) {
	rng := tensor.NewRNG(1)
	if _, err := KMeans(rng, nil, 2); err == nil {
		t.Error("accepted empty input")
	}
	if _, err := KMeans(rng, [][]float64{{1}}, 0); err == nil {
		t.Error("accepted K=0")
	}
	if _, err := KMeans(rng, [][]float64{{1}, {1, 2}}, 2); err == nil {
		t.Error("accepted ragged input")
	}
}

// Property: every KMeans point is assigned to its nearest center.
func TestKMeansNearestAssignmentQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := tensor.NewRNG(seed)
		pts := make([][]float64, 12)
		for i := range pts {
			pts[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
		}
		res, err := KMeans(rng, pts, 3)
		if err != nil {
			return false
		}
		for i, p := range pts {
			assigned, _ := tensor.SquaredDistance(p, res.Centers[res.Labels[i]])
			for _, c := range res.Centers {
				d, _ := tensor.SquaredDistance(p, c)
				if d < assigned-1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: Mean-Shift modes stay inside the data bounding box (means of
// subsets can never escape the convex hull).
func TestMeanShiftModesInBoxQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := tensor.NewRNG(seed)
		pts := make([][]float64, 15)
		for i := range pts {
			pts[i] = []float64{rng.NormFloat64() * 3, rng.NormFloat64() * 3}
		}
		res, err := MeanShift(pts)
		if err != nil {
			return false
		}
		for dim := 0; dim < 2; dim++ {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, p := range pts {
				lo = math.Min(lo, p[dim])
				hi = math.Max(hi, p[dim])
			}
			for _, c := range res.Centers {
				if c[dim] < lo-1e-6 || c[dim] > hi+1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: labels always index a valid center and sizes sum to n.
func TestClusterInvariantsQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := tensor.NewRNG(seed)
		n := 10 + int(seed%7+7)%7
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		}
		res, err := MeanShift(pts)
		if err != nil {
			return false
		}
		total := 0
		for _, s := range res.Sizes {
			total += s
		}
		if total != n {
			return false
		}
		for _, l := range res.Labels {
			if l < 0 || l >= len(res.Centers) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

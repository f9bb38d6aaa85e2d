package cluster

import (
	"errors"
	"math"
	"testing"

	"github.com/signguard/signguard/internal/stats"
	"github.com/signguard/signguard/internal/tensor"
)

// A single NaN coordinate used to make every restart's inertia NaN, leave
// best == nil, and return (nil, nil) — the crash vector behind the
// SignGuard filter nil-deref. Cluster must now return an error, never a
// nil result with a nil error.
func TestKMeansNonFinitePointErrors(t *testing.T) {
	pts := twoBlobs(3, 10, 5)
	pts[4][1] = math.NaN()
	res, err := KMeans(tensor.NewRNG(1), pts, 2)
	if err == nil {
		t.Fatalf("Cluster accepted a NaN point: res=%v", res)
	}
	if !errors.Is(err, ErrNonFinitePoints) {
		t.Fatalf("error %v is not ErrNonFinitePoints", err)
	}
	if res != nil {
		t.Fatalf("Cluster returned non-nil result %v alongside error", res)
	}
}

func TestKMeansInfPointErrors(t *testing.T) {
	pts := twoBlobs(4, 8, 4)
	pts[0][0] = math.Inf(1)
	if _, err := KMeans(tensor.NewRNG(1), pts, 2); !errors.Is(err, ErrNonFinitePoints) {
		t.Fatalf("Cluster with +Inf point: err=%v, want ErrNonFinitePoints", err)
	}
}

// K > n is clamped to n (each point its own cluster); Centers and Sizes
// both have the clamped length. This pins the documented behavior.
func TestKMeansClampsKAbovePointCount(t *testing.T) {
	pts := [][]float64{{0, 0}, {10, 10}, {20, 20}}
	res, err := KMeans(tensor.NewRNG(1), pts, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) != len(pts) {
		t.Fatalf("len(Centers) = %d, want clamped K = %d", len(res.Centers), len(pts))
	}
	if len(res.Sizes) != len(res.Centers) {
		t.Fatalf("len(Sizes) = %d != len(Centers) = %d", len(res.Sizes), len(res.Centers))
	}
	if len(res.Labels) != len(pts) {
		t.Fatalf("len(Labels) = %d, want %d", len(res.Labels), len(pts))
	}
	total := 0
	for _, s := range res.Sizes {
		total += s
	}
	if total != len(pts) {
		t.Fatalf("Sizes sum to %d, want %d", total, len(pts))
	}
}

func TestMeanShiftNonFinitePointErrors(t *testing.T) {
	pts := twoBlobs(5, 10, 5)
	pts[7][0] = math.NaN()
	if _, err := MeanShift(pts, new(stats.Pairwise)); !errors.Is(err, ErrNonFinitePoints) {
		t.Fatalf("MeanShift with NaN point: err=%v, want ErrNonFinitePoints", err)
	}
	pts2 := twoBlobs(6, 10, 5)
	pts2[2][1] = math.Inf(-1)
	if _, err := MeanShift(pts2, new(stats.Pairwise)); !errors.Is(err, ErrNonFinitePoints) {
		t.Fatalf("MeanShift with -Inf point: err=%v, want ErrNonFinitePoints", err)
	}
}

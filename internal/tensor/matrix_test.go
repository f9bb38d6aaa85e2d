package tensor

import (
	"math"
	"testing"
)

// fromRows builds a matrix whose rows are copies of the given
// equal-length vectors.
func fromRows(rows [][]float64) *Matrix {
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.Row(i), r)
	}
	return m
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Data[0] = 1
	m.Data[1*m.Cols+2] = 5
	if len(m.Data) != 6 || m.Data[0] != 1 {
		t.Errorf("NewMatrix(2, 3) data = %v", m.Data)
	}
	row := m.Row(1)
	if len(row) != 3 || row[2] != 5 {
		t.Errorf("Row(1) = %v", row)
	}
	row[0] = 7
	if m.Data[1*m.Cols] != 7 {
		t.Error("Row is not a view of Data")
	}
}

func TestMulVec(t *testing.T) {
	m := fromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	y, err := m.MulVecWorkers([]float64{1, -1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(y, []float64{-1, -1, -1}, 1e-12) {
		t.Errorf("MulVec = %v", y)
	}
	yt, err := m.MulVecTWorkers([]float64{1, 1, 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(yt, []float64{9, 12}, 1e-12) {
		t.Errorf("MulVecT = %v", yt)
	}
	if _, err := m.MulVecWorkers([]float64{1}, 1); err == nil {
		t.Error("MulVec accepted wrong length")
	}
	if _, err := m.MulVecTWorkers([]float64{1}, 1); err == nil {
		t.Error("MulVecT accepted wrong length")
	}
}

func TestMatMul(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	b := fromRows([][]float64{{5, 6}, {7, 8}})
	c := NewMatrix(2, 2)
	if err := MatMulInto(c, a, b); err != nil {
		t.Fatal(err)
	}
	want := []float64{19, 22, 43, 50}
	if !Equal(c.Data, want, 1e-12) {
		t.Errorf("MatMulInto = %v, want %v", c.Data, want)
	}
	if err := MatMulInto(c, a, NewMatrix(3, 2)); err == nil {
		t.Error("MatMulInto accepted mismatched shapes")
	}
}

func TestCenterRows(t *testing.T) {
	m := fromRows([][]float64{{1, 10}, {3, 20}})
	mean := m.CenterRowsWorkers(1)
	if !Equal(mean, []float64{2, 15}, 1e-12) {
		t.Errorf("mean = %v", mean)
	}
	if !Equal(m.Row(0), []float64{-1, -5}, 1e-12) || !Equal(m.Row(1), []float64{1, 5}, 1e-12) {
		t.Errorf("centered rows = %v / %v", m.Row(0), m.Row(1))
	}
}

func TestTopSingularVector(t *testing.T) {
	// Rank-1 matrix: rows are multiples of (3, 4)/5. The dominant right
	// singular vector must align with that direction.
	m := fromRows([][]float64{{3, 4}, {6, 8}, {-3, -4}})
	v := m.TopSingularVectorWorkers(100, 1e-12, 1)
	if math.Abs(Norm(v)-1) > 1e-9 {
		t.Fatalf("singular vector norm = %v", Norm(v))
	}
	dir := []float64{0.6, 0.8}
	dot, _ := Dot(v, dir)
	if math.Abs(math.Abs(dot)-1) > 1e-6 {
		t.Errorf("singular vector %v not aligned with %v (|dot|=%v)", v, dir, math.Abs(dot))
	}
}

func TestTopSingularVectorZeroMatrix(t *testing.T) {
	m := NewMatrix(3, 4)
	v := m.TopSingularVectorWorkers(10, 1e-9, 1)
	if math.Abs(Norm(v)-1) > 1e-9 {
		t.Errorf("zero-matrix singular vector norm = %v, want 1", Norm(v))
	}
}

func TestTopSingularVectorDominantDirection(t *testing.T) {
	// Two clusters along the first axis with small noise on the second:
	// the top singular direction of the centered data is the first axis.
	rng := NewRNG(3)
	rows := make([][]float64, 40)
	for i := range rows {
		x := 5.0
		if i%2 == 0 {
			x = -5.0
		}
		rows[i] = []float64{x, 0.01 * rng.NormFloat64()}
	}
	m := fromRows(rows)
	m.CenterRowsWorkers(1)
	v := m.TopSingularVectorWorkers(200, 1e-12, 1)
	if math.Abs(v[0]) < 0.99 {
		t.Errorf("dominant direction = %v, want ±e1", v)
	}
}

// TestWorkersByteIdentical: every *Workers kernel returns, for any worker
// count, the bits it returns on one worker — the promise each doc comment
// makes, and the one the aggregation rules' worker-count determinism rests
// on.
func TestWorkersByteIdentical(t *testing.T) {
	m := randomMatrix(37, 23, 11)
	x := RandNormal(NewRNG(12), m.Cols, 0, 1)
	xt := RandNormal(NewRNG(13), m.Rows, 0, 1)
	w := RandNormal(NewRNG(14), m.Rows, 1, 0.1)
	rows := make([][]float64, m.Rows)
	for i := range rows {
		rows[i] = m.Row(i)
	}
	kernels := []struct {
		name string
		run  func(workers int) ([]float64, error)
	}{
		{"MulVecWorkers", func(k int) ([]float64, error) { return m.MulVecWorkers(x, k) }},
		{"MulVecTWorkers", func(k int) ([]float64, error) { return m.MulVecTWorkers(xt, k) }},
		{"CenterRowsWorkers", func(k int) ([]float64, error) {
			c := NewMatrix(m.Rows, m.Cols)
			copy(c.Data, m.Data)
			return append(c.CenterRowsWorkers(k), c.Data...), nil
		}},
		{"TopSingularVectorWorkers", func(k int) ([]float64, error) { return m.TopSingularVectorWorkers(50, 1e-12, k), nil }},
		{"MeanWorkers", func(k int) ([]float64, error) { return MeanWorkers(rows, k) }},
		{"WeightedMeanWorkers", func(k int) ([]float64, error) { return WeightedMeanWorkers(rows, w, k) }},
	}
	for _, kc := range kernels {
		t.Run(kc.name, func(t *testing.T) {
			want, err := kc.run(1)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 7} {
				got, err := kc.run(workers)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("workers=%d: %d values, want %d", workers, len(got), len(want))
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("workers=%d: value %d = %v, want %v (bitwise)", workers, i, got[i], want[i])
					}
				}
			}
		})
	}
}

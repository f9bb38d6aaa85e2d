package codec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// BenchmarkCodec measures encode+decode round-trip cost, decoding into a
// reused destination as a simulated round does, and reports the
// compression ratio (dense bytes / wire bytes) per codec. The vectors are
// sim_wide's pre-encode shape (see wideGrads) and dense Gaussian vectors at
// the two dimensions the repo's models bracket, ~10k (the small CNNs) and
// 1M (a large-model stand-in). The CI bench job runs it once; it is a
// profiling input, not a gate.
func BenchmarkCodec(b *testing.B) {
	cases := []struct {
		name  string
		grads [][]float64
	}{
		{"wide/d=4550", wideGrads(rand.New(rand.NewSource(9)), 16, 4550)},
		{"d=10000", [][]float64{testGrad(rand.New(rand.NewSource(7)), 10_000)}},
		{"d=1000000", [][]float64{testGrad(rand.New(rand.NewSource(7)), 1_000_000)}},
	}
	for _, cs := range cases {
		d := len(cs.grads[0])
		for _, name := range Builtin().Names() {
			c, err := Builtin().Build(name, Params{})
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/%s", name, cs.name), func(b *testing.B) {
				rng := rand.New(rand.NewSource(8))
				dst := make([]float64, d)
				var wire int
				b.SetBytes(int64(8 * d))
				for i := 0; i < b.N; i++ {
					e, err := c.Encode(cs.grads[i%len(cs.grads)], rng)
					if err != nil {
						b.Fatal(err)
					}
					wire = e.Bytes()
					if _, err := c.Decode(e.WithDst(dst)); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(8*d)/float64(wire), "x-compression")
			})
		}
	}
}

// wideGrads returns n gradients shaped like a sim_wide client's (a batch-1
// CNN gradient, d = 4550): in rows of 64 coordinates, 30% of rows are
// exact zeros (a unit the ReLU gated off) and a quarter of each other row
// is, for about half exact zeros overall; the rest are log-normally scaled
// Gaussians, spreading the magnitudes over a dozen binary exponents. The
// benchmark cycles through them because one vector encoded over and over
// trains the branch predictor on its own layout, which no round does.
func wideGrads(rng *rand.Rand, n, d int) [][]float64 {
	grads := make([][]float64, n)
	for v := range grads {
		g := make([]float64, d)
		for row := 0; row < d; row += 64 {
			dead := rng.Float64() < 0.3
			for i := row; i < min(row+64, d); i++ {
				if !dead && rng.Float64() >= 0.25 {
					g[i] = rng.NormFloat64() * math.Exp(rng.NormFloat64())
				}
			}
		}
		grads[v] = g
	}
	return grads
}

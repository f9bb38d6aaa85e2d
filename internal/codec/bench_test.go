package codec

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkCodec measures encode+decode round-trip cost and reports the
// compression ratio (dense bytes / wire bytes) per codec at the two
// dimensions the repo's models bracket: ~10k (the small CNNs) and 1M (a
// large-model stand-in). The CI bench job runs it once; it is a profiling
// input, not a gate.
func BenchmarkCodec(b *testing.B) {
	for _, d := range []int{10_000, 1_000_000} {
		grad := testGrad(rand.New(rand.NewSource(7)), d)
		for _, name := range Builtin().Names() {
			c, err := Builtin().Build(name, Params{})
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/d=%d", name, d), func(b *testing.B) {
				rng := rand.New(rand.NewSource(8))
				var wire int
				b.SetBytes(int64(8 * d))
				for i := 0; i < b.N; i++ {
					e, err := c.Encode(grad, rng)
					if err != nil {
						b.Fatal(err)
					}
					wire = e.Bytes()
					if _, err := c.Decode(e); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(8*d)/float64(wire), "x-compression")
			})
		}
	}
}

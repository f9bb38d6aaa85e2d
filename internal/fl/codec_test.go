package fl

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/signguard/signguard/internal/attack"
	"github.com/signguard/signguard/internal/codec"
	"github.com/signguard/signguard/internal/core"
)

// TestGoldenIdentityCodec proves the explicit identity codec reproduces
// the pinned pre-codec pipeline traces bit for bit: inserting the sixth
// stage with the default codec changes nothing — not one Float64bit of any
// aggregated gradient, selection, loss or accuracy.
func TestGoldenIdentityCodec(t *testing.T) {
	for name, want := range goldenTraces {
		t.Run(name, func(t *testing.T) {
			cfg := goldenScenario(t, name)
			cfg.Pipeline.Codec = codec.IdentityCodec{}
			if got := traceDigest(t, cfg); got != want {
				t.Errorf("identity codec drifted from the codec-free engine:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// splitCodecStage lowers codecGrain for the rest of the test, so that the
// codec stage splits even a ten-client cohort over the round's workers.
func splitCodecStage(t *testing.T) {
	grain := codecGrain
	codecGrain = 1
	t.Cleanup(func() { codecGrain = grain })
}

// codecScenario is the SignGuard/LIE golden scenario with a fresh stateful
// rule and the given codec installed.
func codecScenario(t *testing.T, c codec.Codec, workers int) Config {
	t.Helper()
	cfg := baseConfig(tinyDataset(t))
	cfg.Rounds = 8
	cfg.EvalEvery = 4
	cfg.EvalSamples = 60
	cfg.NumByz = 2
	cfg.Attack = attack.NewLIE(0.3)
	cfg.Rule = core.NewPlain(7)
	cfg.Pipeline.Codec = c
	cfg.Workers = workers
	return cfg
}

// goldenTopKTraces pin the topk wire stage bit for bit: the trace digests
// of codecScenario under the sort-based TopKCodec.Encode, recorded at the
// commit before it became a selection. Campaign cache keys and the repo
// benchmark's parameter digests assume the payload never changes. k=30 is
// a client keeping another count than d/10, which Decode still takes.
var goldenTopKTraces = map[string]struct {
	codec codec.Codec
	want  string
}{
	"k=30":      {sortTopK{k: 30}, "d1b97353ff9a92c90c2d96d05799c6a55ca29d29063e7d26e1734081fcf237f9"},
	"k=default": {codec.TopKCodec{}, "5d4b2f96e828bab6b6a9b340969c6150769b2dda3617dc307616951d26b2df04"},
}

func TestGoldenTopKCodec(t *testing.T) {
	for name, g := range goldenTopKTraces {
		t.Run(name, func(t *testing.T) {
			if got := traceDigest(t, codecScenario(t, g.codec, 1)); got != g.want {
				t.Errorf("topk trace drifted from the sort-based encoder:\n got %s\nwant %s", got, g.want)
			}
		})
	}
}

// sortTopK is a topk client that keeps its k largest-magnitude coordinates,
// ties to the lower index, by a full sort; decoding is the server's own.
type sortTopK struct {
	codec.TopKCodec
	k int
}

func (c sortTopK) Encode(grad []float64, _ *rand.Rand) (codec.Encoded, error) {
	order := make([]int, len(grad))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return math.Abs(grad[order[a]]) > math.Abs(grad[order[b]])
	})
	kept := order[:min(c.k, len(grad))]
	sort.Ints(kept)
	e := codec.Encoded{Codec: codec.TopK, Dim: len(grad)}
	for _, i := range kept {
		e.Idx = append(e.Idx, int32(i))
		e.Val = append(e.Val, grad[i])
	}
	return e, nil
}

// TestCodecWorkerInvariance: every codec's full trace digest is identical
// across Workers ∈ {1, 2, 7}. identity, topk and signsgd run the codec
// stage's slots on the round's workers, so the split must not show; qsgd
// stays in arrival order on the stage's own stream, so neither the parallel
// local compute nor the worker count may perturb its draws.
func TestCodecWorkerInvariance(t *testing.T) {
	splitCodecStage(t)
	codecs := map[string]func() codec.Codec{
		"identity": func() codec.Codec { return codec.IdentityCodec{} },
		"topk":     func() codec.Codec { return codec.TopKCodec{} },
		"qsgd":     func() codec.Codec { return codec.QSGDCodec{} },
		"signsgd":  func() codec.Codec { return codec.SignSGDCodec{} },
	}
	for name, build := range codecs {
		t.Run(name, func(t *testing.T) {
			var want string
			for _, workers := range []int{1, 2, 7} {
				got := traceDigest(t, codecScenario(t, build(), workers))
				if want == "" {
					want = got
					continue
				}
				if got != want {
					t.Errorf("workers=%d: trace digest %s, want %s", workers, got, want)
				}
			}
		})
	}
}

// TestCodecWireBytesAccounting checks the per-round bytes-shipped
// accounting: identity charges the dense size per submitted gradient,
// topk strictly less, and the run total is the sum over rounds.
func TestCodecWireBytesAccounting(t *testing.T) {
	run := func(c codec.Codec) *RunResult {
		cfg := baseConfig(tinyDataset(t))
		cfg.Rounds = 4
		cfg.EvalEvery = 4
		cfg.EvalSamples = 60
		cfg.Pipeline.Codec = c
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	dense := run(codec.IdentityCodec{})
	sparse := run(codec.TopKCodec{})
	if dense.WireBytes == 0 || sparse.WireBytes == 0 {
		t.Fatalf("wire bytes not accounted: identity=%d topk=%d", dense.WireBytes, sparse.WireBytes)
	}
	if sparse.WireBytes >= dense.WireBytes {
		t.Errorf("topk shipped %d bytes, identity %d — compression should reduce the total",
			sparse.WireBytes, dense.WireBytes)
	}
	var sum int64
	for _, m := range dense.History {
		if m.WireBytes <= 0 {
			t.Fatalf("round %d has no wire accounting", m.Round)
		}
		sum += m.WireBytes
	}
	if sum != dense.WireBytes {
		t.Errorf("run total %d != per-round sum %d", dense.WireBytes, sum)
	}
}

// TestCodecRoundHookSeesDecoded: the hook's RoundState carries the
// gradients as the defense saw them (post round trip) and the round's
// wire-byte count.
func TestCodecRoundHookSeesDecoded(t *testing.T) {
	cfg := baseConfig(tinyDataset(t))
	cfg.Rounds = 2
	cfg.Pipeline.Codec = codec.SignSGDCodec{}
	hooked := 0
	cfg.RoundHook = func(st *RoundState) {
		hooked++
		if st.WireBytes <= 0 {
			t.Errorf("round %d: no wire bytes in RoundState", st.Round)
		}
		for i, g := range st.Grads {
			for j, v := range g {
				if v != 1 && v != -1 {
					t.Fatalf("round %d grad %d coord %d = %v; hook should see the decoded ±1 wire form",
						st.Round, i, j, v)
				}
			}
		}
	}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if hooked != cfg.Rounds {
		t.Fatalf("hook ran %d times, want %d", hooked, cfg.Rounds)
	}
}

// TestRoundArenasOwnedPerRound: the vectors a hook sees live in the round
// arenas and are dead once it returns, so a hook that overwrites every
// st.Grads and st.Honest vector with NaN each round must leave the final
// parameters bit-identical to a hook-free run — for the identity codec
// (Grads are the payloads, Honest the local-gradient arena) and topk, qsgd
// and signsgd (Grads are the decode slots), sequential and parallel.
func TestRoundArenasOwnedPerRound(t *testing.T) {
	splitCodecStage(t)
	final := func(c codec.Codec, workers int, hook func(*RoundState)) []float64 {
		cfg := codecScenario(t, c, workers)
		cfg.RoundHook = hook
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		return sim.Model().ParamVector()
	}
	poison := func(st *RoundState) {
		for _, set := range [][][]float64{st.Grads, st.Honest} {
			for _, g := range set {
				for j := range g {
					g[j] = math.NaN()
				}
			}
		}
	}
	for _, c := range []codec.Codec{
		codec.IdentityCodec{}, codec.TopKCodec{}, codec.QSGDCodec{}, codec.SignSGDCodec{},
	} {
		for _, workers := range []int{1, 2} {
			want := final(c, workers, nil)
			got := final(c, workers, poison)
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("%s workers=%d: parameter %d is %v after a poisoning hook, %v without one",
						c.Name(), workers, j, got[j], want[j])
				}
			}
		}
	}
}

// TestCodecErrorsSurface: a codec whose round trip fails must abort the
// run with a stage-attributed error.
type brokenCodec struct{ codec.IdentityCodec }

func (brokenCodec) Decode(codec.Encoded) ([]float64, error) {
	return nil, fmt.Errorf("boom")
}

func TestCodecErrorsSurface(t *testing.T) {
	cfg := baseConfig(tinyDataset(t))
	cfg.Rounds = 1
	cfg.Pipeline.Codec = brokenCodec{}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err == nil {
		t.Fatal("broken codec did not fail the run")
	}
}

// firstValueCodec is the identity codec recording each encoded gradient's
// first value, in encode order.
type firstValueCodec struct {
	codec.IdentityCodec
	firsts *[]uint64
}

func (c firstValueCodec) Encode(g []float64, rng *rand.Rand) (codec.Encoded, error) {
	*c.firsts = append(*c.firsts, math.Float64bits(g[0]))
	return c.IdentityCodec.Encode(g, rng)
}

// refusingCodec is the identity codec with a decode that refuses every
// payload whose first value is in refuse, naming that value.
type refusingCodec struct {
	codec.IdentityCodec
	refuse map[uint64]bool
}

func (c refusingCodec) Decode(e codec.Encoded) ([]float64, error) {
	if b := math.Float64bits(e.Dense[0]); c.refuse[b] {
		return nil, fmt.Errorf("refused payload %x", b)
	}
	return c.IdentityCodec.Decode(e)
}

// TestCodecErrorIsLowestSlotForAnyWorkerCount: when decode fails on two
// arrival slots, Step reports the lower slot's error at Workers 1, 2 and 7.
// Slots 2 and 8 fall in different chunks at 2 and at 7 workers, so the
// higher slot's failure can happen first.
func TestCodecErrorIsLowestSlotForAnyWorkerCount(t *testing.T) {
	splitCodecStage(t)
	scenario := func(c codec.Codec, workers int) *Simulation {
		cfg := baseConfig(tinyDataset(t))
		cfg.Rounds = 1
		cfg.Pipeline.Codec = c
		cfg.Workers = workers
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}
	// At one worker the slots encode in arrival order.
	var firsts []uint64
	if _, err := scenario(firstValueCodec{firsts: &firsts}, 1).Step(0); err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for _, b := range firsts {
		seen[b] = true
	}
	if len(firsts) != 10 || len(seen) != len(firsts) {
		t.Fatalf("want 10 distinct first values in arrival order, got %x", firsts)
	}
	want := fmt.Sprintf("fl: codec identity decode: refused payload %x", firsts[2])
	for _, workers := range []int{1, 2, 7} {
		_, err := scenario(refusingCodec{refuse: map[uint64]bool{firsts[2]: true, firsts[8]: true}}, workers).Step(0)
		if err == nil || err.Error() != want {
			t.Errorf("workers=%d: error %v, want %q", workers, err, want)
		}
	}
}

package fl

import (
	"math"
	"math/rand"
	"testing"

	"github.com/signguard/signguard/internal/aggregate"
	"github.com/signguard/signguard/internal/attack"
	"github.com/signguard/signguard/internal/core"
	"github.com/signguard/signguard/internal/data"
	"github.com/signguard/signguard/internal/defense"
	"github.com/signguard/signguard/internal/nn"
	"github.com/signguard/signguard/internal/tensor"
)

// tinyDataset returns a small, easy image dataset for fast engine tests.
func tinyDataset(t *testing.T) *data.Dataset {
	t.Helper()
	ds, err := data.GenerateSynthImage(data.SynthImageConfig{
		Name: "tiny", Classes: 4, C: 1, H: 4, W: 4, Train: 400, Test: 120,
		Margin: 4, NoiseStd: 0.4, SmoothPass: 1, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func tinyModel(rng *rand.Rand) (nn.Classifier, error) {
	return nn.NewMLP(rng, 16, 12, 4)
}

func baseConfig(ds *data.Dataset) Config {
	return Config{
		Dataset: ds, NewModel: tinyModel, Rule: aggregate.NewMean(),
		Clients: 10, NumByz: 0, Rounds: 30, BatchSize: 8,
		LR: 0.1, Momentum: 0.9, WeightDecay: 5e-4,
		EvalEvery: 10, Seed: 42,
	}
}

func TestConfigValidation(t *testing.T) {
	ds := tinyDataset(t)
	good := baseConfig(ds)
	mods := []func(*Config){
		func(c *Config) { c.Dataset = nil },
		func(c *Config) { c.NewModel = nil },
		func(c *Config) { c.Rule = nil },
		func(c *Config) { c.Clients = 0 },
		func(c *Config) { c.NumByz = -1 },
		func(c *Config) { c.NumByz = c.Clients },
		func(c *Config) { c.Rounds = 0 },
		func(c *Config) { c.BatchSize = 0 },
		func(c *Config) { c.LR = 0 },
	}
	for i, mod := range mods {
		cfg := good
		mod(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("config mutation %d accepted", i)
		}
	}
	if _, err := New(good); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestCleanTrainingConverges(t *testing.T) {
	sim, err := New(baseConfig(tinyDataset(t)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.BestAccuracy < 90 {
		t.Errorf("clean training reached only %.1f%%", res.BestAccuracy)
	}
	if res.RuleName != "Mean" || res.AttackName != "NoAttack" {
		t.Errorf("names: %s / %s", res.RuleName, res.AttackName)
	}
	if len(res.History) != 30 {
		t.Errorf("history has %d rounds", len(res.History))
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() *RunResult {
		cfg := baseConfig(tinyDataset(t))
		cfg.NumByz = 2
		cfg.Attack = attack.NewLIE(0.3)
		cfg.Rule = core.NewPlain(7)
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
	a, b := run(), run()
	if a.BestAccuracy != b.BestAccuracy || a.FinalAccuracy != b.FinalAccuracy {
		t.Errorf("identical seeds diverged: %v/%v vs %v/%v",
			a.BestAccuracy, a.FinalAccuracy, b.BestAccuracy, b.FinalAccuracy)
	}
	for i := range a.History {
		if a.History[i].TrainLoss != b.History[i].TrainLoss {
			t.Fatalf("round %d loss differs", i)
		}
	}
}

func TestSignFlipHurtsMeanButNotSignGuard(t *testing.T) {
	base := func(rule aggregate.Rule) float64 {
		cfg := baseConfig(tinyDataset(t))
		cfg.NumByz = 3
		cfg.Attack = attack.NewReverse(5)
		cfg.Rule = rule
		cfg.Rounds = 40
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.FinalAccuracy
	}
	mean := base(aggregate.NewMean())
	guarded := base(core.NewPlain(5))
	if guarded < mean+10 {
		t.Errorf("SignGuard (%.1f) should clearly beat Mean (%.1f) under a scaled reverse attack", guarded, mean)
	}
}

func TestLabelFlipPoisonsByzantineClients(t *testing.T) {
	ds := tinyDataset(t)
	cfg := baseConfig(ds)
	cfg.NumByz = 3
	cfg.Attack = attack.NewLabelFlip()
	var diverged bool
	cfg.RoundHook = func(st *RoundState) {
		// The label-flipped clients' gradients should differ from honest
		// ones; verify at least that malicious gradient positions exist.
		for i, b := range st.ByzMask {
			if b && tensor.Norm(st.Grads[i]) > 0 {
				diverged = true
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
	if !diverged {
		t.Error("label-flip produced no malicious gradients")
	}
}

func TestSelectionAccounting(t *testing.T) {
	cfg := baseConfig(tinyDataset(t))
	cfg.NumByz = 2
	cfg.Attack = attack.NewRandom()
	cfg.Rule = core.NewPlain(3)
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	h, m, ok := res.SelectionRates()
	if !ok {
		t.Fatal("SignGuard must report selection rates")
	}
	if h <= 0 || h > 1 {
		t.Errorf("honest rate %v out of range", h)
	}
	if m > 0.2 {
		t.Errorf("random attack selected at rate %v, want near 0", m)
	}
}

func TestCoordinateRuleReportsNoSelection(t *testing.T) {
	cfg := baseConfig(tinyDataset(t))
	cfg.Rule = aggregate.NewMedian()
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := res.SelectionRates(); ok {
		t.Error("Median should not report selection rates")
	}
}

func TestNonIIDTraining(t *testing.T) {
	cfg := baseConfig(tinyDataset(t))
	cfg.NonIID = &NonIID{S: 0.3, ShardsPerClient: 2}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.BestAccuracy < 70 {
		t.Errorf("non-IID clean training reached only %.1f%%", res.BestAccuracy)
	}
}

func TestRoundHookObservesRounds(t *testing.T) {
	cfg := baseConfig(tinyDataset(t))
	cfg.NumByz = 2
	cfg.Attack = attack.NewSignFlip()
	var rounds, malicious int
	cfg.RoundHook = func(st *RoundState) {
		rounds++
		if len(st.Grads) != cfg.Clients {
			t.Errorf("round %d saw %d gradients", st.Round, len(st.Grads))
		}
		for _, b := range st.ByzMask {
			if b {
				malicious++
			}
		}
		if len(st.Honest) != cfg.Clients-cfg.NumByz {
			t.Errorf("round %d has %d honest grads", st.Round, len(st.Honest))
		}
		if st.Result == nil {
			t.Error("nil result in hook")
		}
	}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if rounds != cfg.Rounds {
		t.Errorf("hook saw %d rounds, want %d", rounds, cfg.Rounds)
	}
	if malicious != cfg.Rounds*cfg.NumByz {
		t.Errorf("hook saw %d malicious slots, want %d", malicious, cfg.Rounds*cfg.NumByz)
	}
}

func TestBatchInputDense(t *testing.T) {
	ds := tinyDataset(t)
	in, labels, err := BatchInput(ds, ds.Train[:5])
	if err != nil {
		t.Fatal(err)
	}
	if in.Dense == nil || in.Dense.Rows != 5 || in.Dense.Cols != 16 {
		t.Errorf("dense batch shape wrong")
	}
	if len(labels) != 5 {
		t.Errorf("labels = %v", labels)
	}
	if _, _, err := BatchInput(ds, nil); err == nil {
		t.Error("accepted empty batch")
	}
}

func TestBatchInputText(t *testing.T) {
	ds, err := data.AGNewsLike(3, 50, 10)
	if err != nil {
		t.Fatal(err)
	}
	in, labels, err := BatchInput(ds, ds.Train[:4])
	if err != nil {
		t.Fatal(err)
	}
	if in.Tokens == nil || len(in.Tokens) != 4 || len(labels) != 4 {
		t.Error("text batch wrong")
	}
}

// evaluateOracle is the sampled evaluation as a standalone loop: the
// sampled test examples copied out with data.Subset, then per 256-example
// chunk a fresh BatchInput and Predict.
func evaluateOracle(t *testing.T, model nn.Classifier, ds *data.Dataset, limit int, seed int64) float64 {
	t.Helper()
	examples := ds.Test
	if limit > 0 && limit < len(examples) {
		var err error
		idx := tensor.SampleIndices(tensor.NewRNG(seed), len(examples), limit)
		if examples, err = data.Subset(examples, idx); err != nil {
			t.Fatal(err)
		}
	}
	var correct int
	for lo := 0; lo < len(examples); lo += 256 {
		in, labels, err := BatchInput(ds, examples[lo:min(lo+256, len(examples))])
		if err != nil {
			t.Fatal(err)
		}
		preds, err := model.Predict(in)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range preds {
			if p == labels[i] {
				correct++
			}
		}
	}
	return 100 * float64(correct) / float64(len(examples))
}

// TestSimulationEvaluateMatchesOracle: the Simulation's evaluation, which
// gathers its sample by index through its own assembler, returns the
// oracle's accuracy bit for bit, for the image and the text model, over
// test sets of more than one chunk, with the sample smaller than the test
// set, as large or larger, and off (limit 0). A warm evaluation reuses the
// assembler's feature matrix and the Simulation's RNG and index buffer, and
// makes the 2 allocations measured when it began to: Predict's class slice
// for each of the two chunks.
func TestSimulationEvaluateMatchesOracle(t *testing.T) {
	image, err := data.GenerateSynthImage(data.SynthImageConfig{
		Name: "tiny", Classes: 4, C: 1, H: 4, W: 4, Train: 400, Test: 300,
		Margin: 4, NoiseStd: 0.4, SmoothPass: 1, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	text, err := data.AGNewsLike(3, 300, 300)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name     string
		ds       *data.Dataset
		newModel func(*rand.Rand) (nn.Classifier, error)
		allocs   float64
	}{
		{"image", image, tinyModel, 2},
		{"text", text, func(rng *rand.Rand) (nn.Classifier, error) { return nn.NewTextRNN(rng, 128, 8, 12, 4), nil }, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := baseConfig(c.ds)
			cfg.NewModel = c.newModel
			cfg.Rounds = 3
			sim, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sim.Run(); err != nil {
				t.Fatal(err)
			}
			n := len(c.ds.Test)
			for _, limit := range []int{0, 30, n - 10, n, n + 5} {
				for _, seed := range []int64{7, 8} {
					got, err := sim.evaluate(limit, seed)
					if err != nil {
						t.Fatal(err)
					}
					if want := evaluateOracle(t, sim.Model(), c.ds, limit, seed); math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("limit %d seed %d: accuracy %v, oracle %v", limit, seed, got, want)
					}
				}
			}

			matrix := sim.scratch[0].dense.Data
			warm := testing.AllocsPerRun(20, func() {
				if _, err := sim.evaluate(n-10, 7); err != nil {
					t.Fatal(err)
				}
			})
			if !c.ds.IsText() && &sim.scratch[0].dense.Data[0] != &matrix[0] {
				t.Error("a warm evaluation built a new feature matrix")
			}
			if warm > c.allocs {
				t.Errorf("a warm evaluation makes %.0f allocations, want <= %.0f", warm, c.allocs)
			}
		})
	}
}

// TestPermIntoMatchesPerm: the evaluation's index draw is rand.Perm's,
// draw for draw, whatever buffer it is handed (none, too small, larger
// than n, holding an earlier permutation) and on a reseeded RNG that has
// drawn before: its first k entries equal a fresh
// rand.New(rand.NewSource(s)).Perm(n)[:k].
func TestPermIntoMatchesPerm(t *testing.T) {
	rng := tensor.NewRNG(99)
	var buf []int
	for _, c := range []struct {
		seed int64
		n, k int
	}{
		{1, 1, 1}, {7, 300, 30}, {8, 300, 290}, {-3, 500, 250}, {1 << 40, 17, 5}, {7, 1000, 400}, {2, 64, 64},
	} {
		rng.Seed(c.seed)
		buf = permInto(rng, buf, c.n)
		want := rand.New(rand.NewSource(c.seed)).Perm(c.n)[:c.k]
		if len(buf) != c.n {
			t.Fatalf("seed %d n %d: permutation of length %d", c.seed, c.n, len(buf))
		}
		for i, v := range want {
			if buf[i] != v {
				t.Fatalf("seed %d n %d k %d: index %d is %d, rand.Perm draws %d", c.seed, c.n, c.k, i, buf[i], v)
			}
		}
		rng.Int63() // the next reseed must not depend on where the stream was left
	}
}

// TestEvaluateReusesModelBuffers: a warmed model's second Evaluate over the
// same chunk allocates no layer buffer, for the image CNN and for the text
// RNN. want is the count measured once the tensor kernels stopped
// allocating a closure per call: Evaluate's assembler, its label slice and
// feature matrix or token index, and Predict's class slice. A first
// Evaluate on a freshly built model shows what the layer buffers cost.
func TestEvaluateReusesModelBuffers(t *testing.T) {
	image := tinyDataset(t)
	text, err := data.AGNewsLike(3, 50, 40)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		ds    *data.Dataset
		build func() (nn.Classifier, error)
		want  float64
	}{
		{"image-cnn", image, func() (nn.Classifier, error) { return nn.NewImageCNN(tensor.NewRNG(1), 1, 4, 4, 3, 8, 4) }, 4},
		{"text-rnn", text, func() (nn.Classifier, error) { return nn.NewTextRNN(tensor.NewRNG(1), 128, 16, 24, 4), nil }, 4},
	} {
		t.Run(c.name, func(t *testing.T) {
			evaluate := func(m nn.Classifier) {
				if _, err := Evaluate(m, c.ds, c.ds.Test); err != nil {
					t.Fatal(err)
				}
			}
			model, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			evaluate(model)
			warm := testing.AllocsPerRun(20, func() { evaluate(model) })
			cold := testing.AllocsPerRun(20, func() {
				m, err := c.build()
				if err != nil {
					t.Fatal(err)
				}
				evaluate(m)
			}) - testing.AllocsPerRun(20, func() { _, _ = c.build() })
			if warm > c.want {
				t.Errorf("a warm Evaluate makes %.0f allocations, want <= %.0f", warm, c.want)
			}
			if cold <= warm {
				t.Errorf("a first Evaluate makes %.0f allocations vs %.0f warm; the bound proves nothing", cold, warm)
			}
		})
	}
}

func TestDivergedRunEndsGracefully(t *testing.T) {
	cfg := baseConfig(tinyDataset(t))
	cfg.NumByz = 3
	// An absurdly scaled reverse attack against an undefended mean drives
	// the parameters out of the finite range within a few rounds.
	cfg.Attack = attack.NewReverse(1e12)
	cfg.Rule = aggregate.NewMean()
	cfg.LR = 1
	cfg.Rounds = 50
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatalf("diverged run should not error: %v", err)
	}
	if !res.Diverged {
		t.Error("run should be marked Diverged")
	}
	if len(res.History) >= cfg.Rounds {
		t.Errorf("diverged run recorded %d rounds, expected early stop", len(res.History))
	}
}

// poisonAttack is a test-local non-finite craft: every coordinate of each
// Byzantine gradient becomes v, or, with frac > 0, that share of them drawn
// from ctx.Rng (at least one).
type poisonAttack struct {
	v, frac float64
}

func (poisonAttack) Name() string { return "poison" }

func (a poisonAttack) Craft(ctx *attack.Context) ([][]float64, error) {
	out := make([][]float64, len(ctx.ByzOwn))
	for i, own := range ctx.ByzOwn {
		g := tensor.Clone(own)
		if a.frac > 0 {
			k := max(int(a.frac*float64(len(g))), 1)
			for _, j := range ctx.Rng.Perm(len(g))[:k] {
				g[j] = a.v
			}
		} else {
			tensor.Fill(g, a.v)
		}
		out[i] = g
	}
	return out, nil
}

// TestNonFiniteSubmissionRefused: a zero-valued Config refuses a
// non-finite submission from its round, like the serving core's ingest, and
// trains on: a hostile client costs itself its slot, not the server its
// run. The refusal comes before the codec and the defense, so under each
// rule the catalog NaN attack, whole-vector ±Inf and NaN in 1% of the
// coordinates are one training run, down to the last parameter bit.
func TestNonFiniteSubmissionRefused(t *testing.T) {
	ds := tinyDataset(t)
	shapes := []struct {
		name string
		att  attack.Attack
	}{
		{"NaN", attack.NewNonFinite()},
		{"+Inf", poisonAttack{v: math.Inf(1)}},
		{"-Inf", poisonAttack{v: math.Inf(-1)}},
		{"sparse-NaN", poisonAttack{v: math.NaN(), frac: 0.01}},
	}
	for _, rule := range []string{"SignGuard", "Multi-Krum", "DnC", "Median", "Mean"} {
		t.Run(rule, func(t *testing.T) {
			// The first shape to finish is the one the others must match.
			var ref string
			var first []float64
			for _, sh := range shapes {
				t.Run(sh.name, func(t *testing.T) {
					cfg := baseConfig(ds)
					// 12 clients leave Multi-Krum the 2F+3 gradients it needs
					// once the three hostile ones are refused.
					cfg.Clients, cfg.NumByz = 12, 3
					cfg.Attack = sh.att
					cfg.Rounds = 5
					r, err := defense.Builtin().Build(rule, defense.Params{N: cfg.Clients, F: cfg.NumByz, Seed: 7})
					if err != nil {
						t.Fatal(err)
					}
					cfg.Rule = r
					sim, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					res, err := sim.Run()
					if err != nil {
						t.Fatal(err)
					}
					if res.Diverged || len(res.History) != cfg.Rounds {
						t.Fatalf("Diverged = %v after %d of %d rounds, want a completed run", res.Diverged, len(res.History), cfg.Rounds)
					}
					if want := cfg.NumByz * cfg.Rounds; res.NonFiniteScreened != want {
						t.Errorf("NonFiniteScreened = %d, want %d (every hostile submission)", res.NonFiniteScreened, want)
					}
					params := sim.Model().ParamVector()
					if first == nil {
						ref, first = sh.name, params
						return
					}
					for i := range params {
						if math.Float64bits(params[i]) != math.Float64bits(first[i]) {
							t.Fatalf("parameter %d = %v, %s run ended on %v", i, params[i], ref, first[i])
						}
					}
				})
			}
		})
	}
}

// hugeAttack submits finite gradients whose norm is beyond the range the
// defenses' squared distances can take.
type hugeAttack struct{}

func (hugeAttack) Name() string { return "huge" }

func (hugeAttack) Craft(ctx *attack.Context) ([][]float64, error) {
	out := make([][]float64, len(ctx.ByzOwn))
	for i, g := range ctx.ByzOwn {
		out[i] = make([]float64, len(g))
		for j := range out[i] {
			out[i][j] = 1e141
		}
	}
	return out, nil
}

// TestHugeFiniteSubmissionDiverges pins the other half of the ingest
// screen: a finite submission is never refused, and one whose norm is above
// 1e140 means the run has diverged.
func TestHugeFiniteSubmissionDiverges(t *testing.T) {
	cfg := baseConfig(tinyDataset(t))
	cfg.NumByz = 3
	cfg.Attack = hugeAttack{}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Diverged || len(res.History) != 0 || res.NonFiniteScreened != 0 {
		t.Fatalf("Diverged = %v after %d rounds, %d screened: want divergence in round 0, nothing screened",
			res.Diverged, len(res.History), res.NonFiniteScreened)
	}
}

// Package signguard is the public API of the SignGuard reproduction — a
// from-scratch Go implementation of "Byzantine-robust Federated Learning
// through Collaborative Malicious Gradient Filtering" (Xu, Huang, Song,
// Lan; ICDCS 2022), including the full substrate the paper's evaluation
// rests on: a neural-network training stack, synthetic dataset analogs,
// every attack and baseline defense evaluated, an in-process federated
// simulation engine and an HTTP serving layer.
//
// The package re-exports the library surface a downstream user needs; the
// implementation lives in internal/ packages (one per subsystem). Typical
// use:
//
//	ds, _ := signguard.MNISTLike(1, 4000, 1000)
//	sim, _ := signguard.NewSimulation(signguard.SimulationConfig{
//		Dataset:  ds,
//		NewModel: func(rng *rand.Rand) (signguard.Classifier, error) {
//			return signguard.NewImageCNN(rng, 1, 8, 8, 6, 32, 10)
//		},
//		Rule:    signguard.NewSignGuard(1),
//		Attack:  signguard.NewLIEAttack(0.3),
//		Clients: 50, NumByz: 10, Rounds: 100, BatchSize: 16,
//		LR: 0.1, Momentum: 0.9, WeightDecay: 5e-4, Seed: 1,
//	})
//	result, _ := sim.Run()
//	fmt.Println(result.BestAccuracy)
package signguard

import (
	"math/rand"

	"github.com/signguard/signguard/internal/aggregate"
	"github.com/signguard/signguard/internal/asyncfl"
	"github.com/signguard/signguard/internal/attack"
	"github.com/signguard/signguard/internal/core"
	"github.com/signguard/signguard/internal/data"
	"github.com/signguard/signguard/internal/fl"
	"github.com/signguard/signguard/internal/nn"
)

// ---- Core SignGuard framework ----

// SignGuard is the paper's robust aggregation rule (Algorithm 2). Construct
// with NewSignGuard / NewSignGuardSim / NewSignGuardDist, or from a
// SignGuardConfig for full control.
type SignGuard = core.SignGuard

// SignGuardConfig parameterizes a custom SignGuard instance (bounds,
// coordinate fraction, similarity feature, clustering algorithm, component
// toggles for ablations).
type SignGuardConfig = core.Config

// SignGuardReport is the per-round filtering report (trusted set and
// per-filter decisions).
type SignGuardReport = core.Report

// DefaultSignGuardConfig returns the paper's default configuration
// (L=0.1, R=3.0, 10% coordinates, Mean-Shift, all components on).
func DefaultSignGuardConfig() SignGuardConfig { return core.DefaultConfig() }

// NewSignGuardFromConfig builds a SignGuard aggregator from a config.
func NewSignGuardFromConfig(cfg SignGuardConfig) (*SignGuard, error) { return core.New(cfg) }

// NewSignGuard returns plain SignGuard (sign statistics only).
func NewSignGuard(seed int64) *SignGuard { return core.NewPlain(seed) }

// NewSignGuardSim returns SignGuard-Sim (adds the cosine-similarity feature).
func NewSignGuardSim(seed int64) *SignGuard { return core.NewSim(seed) }

// NewSignGuardDist returns SignGuard-Dist (adds the Euclidean-distance feature).
func NewSignGuardDist(seed int64) *SignGuard { return core.NewDist(seed) }

// Similarity feature selectors for SignGuardConfig.
const (
	NoSimilarity       = core.NoSimilarity
	CosineSimilarity   = core.CosineSimilarity
	DistanceSimilarity = core.DistanceSimilarity
)

// Clustering algorithm selectors for SignGuardConfig.
const (
	MeanShiftAlgo = core.MeanShiftAlgo
	KMeansAlgo    = core.KMeansAlgo
)

// ---- Aggregation rules (baseline defenses) ----

// Rule is the gradient aggregation interface every defense implements.
type Rule = aggregate.Rule

// AggregationResult is a rule's per-round output (gradient + selected set).
type AggregationResult = aggregate.Result

// NewMean returns the naive averaging rule (no defense).
func NewMean() Rule { return aggregate.NewMean() }

// NewTrimmedMean returns the coordinate-wise trimmed mean, trimming k per side.
func NewTrimmedMean(k int) Rule { return aggregate.NewTrimmedMean(k) }

// NewMedian returns the coordinate-wise median rule.
func NewMedian() Rule { return aggregate.NewMedian() }

// NewGeoMed returns the geometric-median (Weiszfeld) rule.
func NewGeoMed() Rule { return aggregate.NewGeoMed() }

// NewKrum returns Krum with assumed Byzantine count f.
func NewKrum(f int) Rule { return aggregate.NewKrum(f) }

// NewMultiKrum returns Multi-Krum selecting m gradients.
func NewMultiKrum(f, m int) Rule { return aggregate.NewMultiKrum(f, m) }

// NewBulyan returns Bulyan with assumed Byzantine count f (needs n ≥ 4f+2).
func NewBulyan(f int) Rule { return aggregate.NewBulyan(f) }

// NewDnC returns Divide-and-Conquer spectral filtering.
func NewDnC(f int, seed int64) Rule { return aggregate.NewDnC(f, seed) }

// NewSignSGDMajority returns the signSGD majority-vote rule.
func NewSignSGDMajority(scale float64) Rule { return aggregate.NewSignSGDMajority(scale) }

// ---- Attacks ----

// Attack is the adversary interface: it crafts the Byzantine gradients of a
// round from full knowledge of the honest ones.
type Attack = attack.Attack

// AttackContext is what the adversary observes each round.
type AttackContext = attack.Context

// NewNoAttack returns the honest (no attack) strategy.
func NewNoAttack() Attack { return attack.NewNone() }

// NewRandomAttack returns the Gaussian random-gradient attack.
func NewRandomAttack() Attack { return attack.NewRandom() }

// NewNoiseAttack returns the additive Gaussian noise attack.
func NewNoiseAttack() Attack { return attack.NewNoise() }

// NewSignFlipAttack returns the gradient sign-flipping attack.
func NewSignFlipAttack() Attack { return attack.NewSignFlip() }

// NewLabelFlipAttack returns the label-flipping data-poisoning attack.
func NewLabelFlipAttack() Attack { return attack.NewLabelFlip() }

// NewLIEAttack returns the "A Little Is Enough" attack with factor z
// (z <= 0 derives z_max from Eq. 2 each round).
func NewLIEAttack(z float64) Attack { return attack.NewLIE(z) }

// NewByzMeanAttack returns the paper's ByzMean hybrid attack (Eq. 8).
func NewByzMeanAttack() Attack { return attack.NewByzMean() }

// NewMinMaxAttack returns the Min-Max attack (Eq. 14).
func NewMinMaxAttack() Attack { return attack.NewMinMax() }

// NewMinSumAttack returns the Min-Sum attack (Eq. 15).
func NewMinSumAttack() Attack { return attack.NewMinSum() }

// NewReverseAttack returns the scaled reverse (−r·g) ablation attack.
func NewReverseAttack(scale float64) Attack { return attack.NewReverse(scale) }

// NewSignKeepingAttack returns the adaptive white-box attack (an
// implementation of the paper's future-work discussion): it preserves the
// honest mean's exact sign statistics and norm while shuffling magnitudes
// within each sign class, evading the plain sign filter by construction.
func NewSignKeepingAttack() Attack { return attack.NewSignKeeping() }

// NewTimeVaryingAttack re-draws a strategy from pool every switchEvery
// rounds (Fig. 5's protocol).
func NewTimeVaryingAttack(pool []Attack, switchEvery int, seed int64) (Attack, error) {
	return attack.NewTimeVarying(pool, switchEvery, seed)
}

// DefaultAttackPool returns the Fig. 5 candidate pool (incl. no-attack).
func DefaultAttackPool() []Attack { return attack.DefaultTimeVaryingPool() }

// Adversary is the round-aware attacker interface of the pipeline: its
// Context carries the round index and the previous rounds' filtering
// history when the attack declares it needs them.
type Adversary = attack.Adversary

// AttackObservation is one round's filtering feedback as seen by an
// omniscient adaptive adversary.
type AttackObservation = attack.Observation

// NewAdaptiveMinMaxAttack returns the history-aware Min-Max port: it
// tightens or relaxes its distance constraint from the defense's observed
// filtering decisions.
func NewAdaptiveMinMaxAttack() Adversary { return attack.NewAdaptiveMinMax() }

// ---- Round pipeline ----

// Pipeline overrides individual stages of the engine's five-stage round
// pipeline (Participation → LocalCompute → Adversary → Defense →
// ServerUpdate); zero value = the paper's protocol.
type Pipeline = fl.Pipeline

// Participation selects the clients of each round.
type Participation = fl.Participation

// FullParticipation selects every client every round (the default).
type FullParticipation = fl.FullParticipation

// UniformSubsample selects K distinct clients uniformly at random each
// round, from the participation stage's own RNG stream.
type UniformSubsample = fl.UniformSubsample

// ---- Datasets ----

// Dataset bundles a train/test split with model-facing metadata.
type Dataset = data.Dataset

// Example is one labelled sample (dense features or token sequence).
type Example = data.Example

// MNISTLike returns the MNIST analog dataset (easy 10-class images).
func MNISTLike(seed int64, train, test int) (*Dataset, error) {
	return data.MNISTLike(seed, train, test)
}

// FashionLike returns the Fashion-MNIST analog dataset.
func FashionLike(seed int64, train, test int) (*Dataset, error) {
	return data.FashionLike(seed, train, test)
}

// CIFARLike returns the CIFAR-10 analog dataset (3-channel, hardest).
func CIFARLike(seed int64, train, test int) (*Dataset, error) {
	return data.CIFARLike(seed, train, test)
}

// AGNewsLike returns the AG-News analog text dataset.
func AGNewsLike(seed int64, train, test int) (*Dataset, error) {
	return data.AGNewsLike(seed, train, test)
}

// ---- Models ----

// Classifier is the trainable-model interface (flat parameter and gradient
// vector views over any architecture).
type Classifier = nn.Classifier

// ModelInput is a batch in model-facing form.
type ModelInput = nn.Input

// NewImageCNN builds a conv → pool → FC classifier for c×h×w inputs.
func NewImageCNN(rng *rand.Rand, c, h, w, filters, hidden, classes int) (Classifier, error) {
	return nn.NewImageCNN(rng, c, h, w, filters, hidden, classes)
}

// NewDeepImageCNN builds a two-stage convolutional classifier.
func NewDeepImageCNN(rng *rand.Rand, c, h, w, f1, f2, hidden, classes int) (Classifier, error) {
	return nn.NewDeepImageCNN(rng, c, h, w, f1, f2, hidden, classes)
}

// NewMLP builds a ReLU multi-layer perceptron over the given layer sizes.
func NewMLP(rng *rand.Rand, sizes ...int) (Classifier, error) {
	return nn.NewMLP(rng, sizes...)
}

// NewTextRNN builds the recurrent text classifier (AG-News analog model).
func NewTextRNN(rng *rand.Rand, vocab, embed, hidden, classes int) Classifier {
	return nn.NewTextRNN(rng, vocab, embed, hidden, classes)
}

// ---- Federated simulation ----

// SimulationConfig configures an in-process federated training run.
type SimulationConfig = fl.Config

// Simulation is a configured federated training session.
type Simulation = fl.Simulation

// RunResult summarizes a completed run (best/final accuracy, traces,
// selection rates).
type RunResult = fl.RunResult

// NonIIDConfig selects the paper's non-IID partition.
type NonIIDConfig = fl.NonIID

// NewSimulation prepares a federated training run.
func NewSimulation(cfg SimulationConfig) (*Simulation, error) { return fl.New(cfg) }

// Evaluate returns model accuracy (%) over examples.
func Evaluate(model Classifier, ds *Dataset, examples []Example) (float64, error) {
	return fl.Evaluate(model, ds, examples)
}

// ---- Network serving ----

// AggregatorConfig configures the server-side aggregation core: the rule,
// the optimizer, the buffer size K and the number of steps. For the paper's
// lock-step rounds set K to the client count, Deterministic, and SessionTTL
// negative.
type AggregatorConfig = asyncfl.Config

// Aggregator screens, defends, merges and applies submitted gradients; the
// trained model, per-step history and counters are read from it.
type Aggregator = asyncfl.Aggregator

// NewAggregator builds the aggregation core that cmd/flserver serves over
// HTTP.
func NewAggregator(cfg AggregatorConfig) (*Aggregator, error) { return asyncfl.New(cfg) }

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
//	lie, _ := signguard.NewAttack("LIE", 0.3, 1)
//	sim, _ := signguard.NewSimulation(signguard.SimulationConfig{
//		Dataset:  ds,
//		NewModel: func(rng *rand.Rand) (signguard.Classifier, error) {
//			return signguard.NewImageCNN(rng, 1, 8, 8, 6, 32, 10)
//		},
//		Rule:    signguard.NewSignGuard(1),
//		Attack:  lie,
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
	"github.com/signguard/signguard/internal/defense"
	"github.com/signguard/signguard/internal/fl"
	"github.com/signguard/signguard/internal/nn"
)

// ---- Core SignGuard framework ----

// SignGuard is the paper's robust aggregation rule (Algorithm 2). Construct
// with NewSignGuard / NewSignGuardSim / NewSignGuardDist, or from a
// SignGuardConfig for full control.
type SignGuard = core.SignGuard

// SignGuardConfig parameterizes a custom SignGuard instance (coordinate
// fraction, similarity feature, component toggles for ablations).
type SignGuardConfig = core.Config

// DefaultSignGuardConfig returns the paper's default configuration (10%
// coordinates, all components on; the norm band L=0.1, R=3.0 is fixed).
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

// ---- Defenses ----

// Rule is the gradient aggregation interface every defense implements.
type Rule = aggregate.Rule

// AggregationResult is a rule's per-round output (gradient + selected set).
type AggregationResult = aggregate.Result

// DefenseParams is the constructor input of every catalog defense: the
// cohort size N, the Byzantine count F granted to the baselines (SignGuard
// ignores it) and a seed. Each defense runs at its one catalog
// configuration.
type DefenseParams = defense.Params

// NewDefense builds the catalog defense name, a row label of the paper's
// tables ("Mean", "TrMean", "Multi-Krum", "SignGuard-Sim", ...). The rule
// is wrapped in a guard that turns a non-finite aggregate into an error.
// An unknown name is an error, with a suggestion when it differs from a
// catalog name only in case, '-' or '_'.
func NewDefense(name string, p DefenseParams) (Rule, error) {
	return defense.Builtin().Build(name, p)
}

// ---- Attacks ----

// Attack is the adversary interface: it crafts the Byzantine gradients of a
// round from full knowledge of the honest ones.
type Attack = attack.Attack

// AttackContext is what the adversary observes each round.
type AttackContext = attack.Context

// Adversary is the round-aware attacker interface of the pipeline: its
// Context carries the round index and the previous rounds' filtering
// history when the attack declares it needs them.
type Adversary = attack.Adversary

// AttackObservation is one round's filtering feedback as seen by an
// omniscient adaptive adversary.
type AttackObservation = attack.Observation

// NewAttack builds the catalog attack name, a column label of the paper's
// tables ("NoAttack", "Sign-flip", "LIE", "Min-Max", ...) or an ablation or
// adaptive attack ("Reverse", "TimeVarying", "Adaptive-Min-Max", ...).
// param is the attack's scalar knob — LIE's z, Reverse's scale,
// TimeVarying's switch period — with 0 selecting its default; seed drives
// any construction-time randomness.
func NewAttack(name string, param float64, seed int64) (Attack, error) {
	spec, err := attack.Builtin().Lookup(name)
	if err != nil {
		return nil, err
	}
	return spec.New(param, seed)
}

// ---- Round pipeline ----

// Pipeline overrides individual stages of the engine's five-stage round
// pipeline (Participation → LocalCompute → Adversary → Defense →
// ServerUpdate); zero value = the paper's protocol.
type Pipeline = fl.Pipeline

// Participation selects the clients of each round.
type Participation = fl.Participation

// FullParticipation selects every client every round (the default).
type FullParticipation = fl.FullParticipation

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

// SegmentGrad is one client's share of Classifier.BatchedLossAndGrad's
// stacked pass, so a model outside this module can implement Classifier.
type SegmentGrad = nn.SegmentGrad

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
// HTTP. A rule needing a server reference gradient (FLTrust) is refused.
func NewAggregator(cfg AggregatorConfig) (*Aggregator, error) { return asyncfl.New(cfg) }

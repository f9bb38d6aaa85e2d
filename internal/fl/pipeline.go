package fl

// The round pipeline: every aggregation round flows through six explicit,
// individually pluggable stages —
//
//	Participation → LocalCompute → Adversary → Codec → Defense → ServerUpdate
//
// Each stage is a small interface whose default implementation reproduces
// the classic monolithic engine byte for byte (full participation, the
// configured static attack, the lossless identity codec, the configured
// aggregation rule, server momentum SGD). Every stage with randomness
// draws from its own derived RNG stream, so swapping one stage (e.g. a
// participation stage that samples a cohort, or a lossy codec) perturbs no
// other stage's random choices.

import (
	"math/rand"

	"github.com/signguard/signguard/internal/aggregate"
	"github.com/signguard/signguard/internal/attack"
	"github.com/signguard/signguard/internal/codec"
	"github.com/signguard/signguard/internal/data"
	"github.com/signguard/signguard/internal/nn"
)

// Pipeline overrides individual round-pipeline stages; nil fields fall
// back to the defaults derived from Config (FullParticipation,
// ReplicaCompute, the promoted Config.Attack, the lossless
// codec.IdentityCodec, Config.Rule wrapped as a RuleDefense, and momentum
// SGDUpdate).
type Pipeline struct {
	Participation Participation
	Local         LocalCompute
	Adversary     attack.Adversary
	// Codec is stage 4: every submitted gradient — honest and malicious
	// alike — is encoded and decoded through it, so the defense aggregates
	// exactly what crossed the wire. A Stochastic codec runs in arrival
	// order on the stage's own derived RNG stream; any other runs its slots
	// on the round's workers with a nil rng. The result is the same for
	// any worker count either way.
	Codec   codec.Codec
	Defense Defense
	Update  ServerUpdate
}

// Client is one simulated participant, visible to pipeline stages.
type Client struct {
	// ID is the stable client index in [0, Config.Clients).
	ID int
	// Byzantine marks the adversary-controlled clients.
	Byzantine bool
	// Sampler draws the client's local mini-batches (its own RNG stream).
	Sampler *data.Sampler
}

// Participation is stage 1: it selects which clients take part in a round.
type Participation interface {
	Name() string
	// Select returns the participating client ids for the round in strictly
	// ascending order. Implementations must draw randomness only from rng —
	// the stage's own derived stream.
	Select(rng *rand.Rand, round, clients int) ([]int, error)
}

// FullParticipation selects every client every round — the paper's
// synchronous protocol and the default. It never draws from the stage RNG.
type FullParticipation struct{}

// Name implements Participation.
func (FullParticipation) Name() string { return "full" }

// Select implements Participation.
func (FullParticipation) Select(_ *rand.Rand, _, clients int) ([]int, error) {
	ids := make([]int, clients)
	for i := range ids {
		ids[i] = i
	}
	return ids, nil
}

// ClientGrad is one participant's local-compute output.
type ClientGrad struct {
	Grad []float64
	Loss float64
	Err  error
}

// LocalEnv is the engine state handed to the LocalCompute stage.
type LocalEnv struct {
	// Dataset supplies the example store the samplers index into.
	Dataset *data.Dataset
	// BatchSize is the per-client mini-batch size.
	BatchSize int
	// Global is the current global parameter vector.
	Global []float64
	// Replicas are the per-worker model copies; Replicas[0] is the main
	// model and is already positioned at Global.
	Replicas []nn.Classifier
	// Workers bounds the stage's parallelism (1 = sequential).
	Workers int

	// scratch is each worker replica's reusable tile buffers, indexed like
	// Replicas and owned by the Simulation (see ReplicaCompute).
	scratch []*workerScratch
	// grads is the Simulation's round gradient arena: participant i's
	// gradient lands in grads[i*d:(i+1)*d], d = len(Global). Nil for a
	// hand-built env, whose gradients are freshly allocated.
	grads []float64
}

// LocalCompute is stage 2: it computes the participants' honest local
// gradients at the current global parameters. The output must have one
// entry per participant, in participant order, regardless of scheduling.
type LocalCompute interface {
	Name() string
	Compute(env *LocalEnv, participants []*Client) ([]ClientGrad, error)
}

// Defense is stage 5: it filters and aggregates the round's submitted
// gradients, after they have passed through the codec round trip.
// Implementations may be stateful across rounds (SignGuard keeps the
// previous aggregate as its similarity reference), but grads and its
// vectors are the Simulation's round arenas, valid only for the duration
// of the call: anything kept must be copied.
type Defense interface {
	Name() string
	Aggregate(round int, grads [][]float64) (*aggregate.Result, error)
}

// RuleDefense adapts an aggregate.Rule as the Defense stage (the default,
// wrapping Config.Rule).
type RuleDefense struct{ Rule aggregate.Rule }

// Name implements Defense.
func (d RuleDefense) Name() string { return d.Rule.Name() }

// Aggregate implements Defense.
func (d RuleDefense) Aggregate(_ int, grads [][]float64) (*aggregate.Result, error) {
	return d.Rule.Aggregate(grads)
}

// ServerUpdate is stage 6: it folds the aggregated gradient into the
// global parameter vector in place.
type ServerUpdate interface {
	Name() string
	Apply(round int, global, grad []float64) error
}

// SGDUpdate is the default server stage: momentum SGD with weight decay
// (the paper's server optimizer).
type SGDUpdate struct{ Opt *nn.SGD }

// Name implements ServerUpdate.
func (SGDUpdate) Name() string { return "sgd" }

// Apply implements ServerUpdate.
func (u SGDUpdate) Apply(_ int, global, grad []float64) error {
	return u.Opt.Step(global, grad)
}

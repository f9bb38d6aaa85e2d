// Package fl is the federated-learning engine of the reproduction: a
// deterministic in-process simulation of the paper's system — one parameter
// server, n clients (a β-fraction Byzantine and controlled by an omniscient
// adversary), synchronous aggregation rounds (Algorithm 1), robust gradient
// aggregation, and server-side momentum SGD.
//
// Every round flows through the explicit six-stage pipeline declared in
// pipeline.go (Participation → LocalCompute → Adversary → Codec → Defense
// → ServerUpdate); the default stages reproduce the paper's protocol —
// full participation, a static attack, the lossless identity codec, the
// configured aggregation rule — while scenario axes like gradient
// compression or adaptive round-aware attacks plug in as alternative
// stages. Participation is pluggable too (the bench wraps it to time it),
// but the harness always runs every client in every round.
//
// The engine is the substrate under every table and figure: it exposes the
// per-round gradients, filtering decisions, and accuracy traces the
// experiments record.
package fl

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"github.com/signguard/signguard/internal/aggregate"
	"github.com/signguard/signguard/internal/attack"
	"github.com/signguard/signguard/internal/codec"
	"github.com/signguard/signguard/internal/data"
	"github.com/signguard/signguard/internal/nn"
	"github.com/signguard/signguard/internal/parallel"
	"github.com/signguard/signguard/internal/sanitize"
	"github.com/signguard/signguard/internal/tensor"
)

// NonIID configures the paper's synthetic non-IID partition: an S-fraction
// of the data is spread IID, the rest is sorted by label and dealt out as
// ShardsPerClient shards per client.
type NonIID struct {
	S               float64
	ShardsPerClient int
}

// RoundState is passed to the optional per-round hook: everything observed
// and decided in one aggregation round. It is materialized only when a
// RoundHook is installed; hook-free runs skip the per-round allocation.
//
// Lifetime: the vectors in Grads and Honest live in the Simulation's round
// arenas and are valid only for the duration of the hook call — the next
// round overwrites them, so a hook that keeps one must copy it.
type RoundState struct {
	Round int
	// Participants lists the client ids selected by the participation
	// stage, ascending.
	Participants []int
	// Grads holds all submitted gradients in server arrival order, as the
	// defense saw them: after the codec round trip.
	Grads [][]float64
	// WireBytes is the round's total bytes-shipped accounting: the sum of
	// every submitted gradient's encoded wire size.
	WireBytes int64
	// ByzMask marks which arrival positions carry malicious gradients.
	ByzMask []bool
	// Honest holds the honest gradients of the benign clients only.
	Honest [][]float64
	// Result is the aggregation outcome of the round.
	Result *aggregate.Result
}

// Config describes one simulated training run.
type Config struct {
	// Dataset supplies the train/test split (required).
	Dataset *data.Dataset
	// NewModel constructs the global model (required). It is called once
	// with a seeded RNG.
	NewModel func(rng *rand.Rand) (nn.Classifier, error)
	// Rule is the gradient aggregation rule under test (required unless
	// Pipeline.Defense is set).
	Rule aggregate.Rule
	// Attack is the adversary's strategy; nil or attack.None means no
	// attack. Attacks implementing attack.Adversary receive the round
	// index and filtering history in their Context.
	Attack attack.Attack

	// Pipeline overrides individual round-pipeline stages; the zero value
	// runs the paper's protocol (see Pipeline).
	Pipeline Pipeline

	// Clients is the total client count n (paper default 50).
	Clients int
	// NumByz is the number of Byzantine clients m (n ≥ 2m+1 expected).
	NumByz int
	// Rounds is the number of synchronous aggregation rounds T.
	Rounds int
	// BatchSize is the per-client mini-batch size.
	BatchSize int

	// LR / Momentum / WeightDecay configure the server-side SGD step
	// (paper defaults: momentum 0.9, weight decay 5e-4).
	LR          float64
	Momentum    float64
	WeightDecay float64

	// EvalEvery evaluates test accuracy every k rounds (default: 10).
	// The final round is always evaluated.
	EvalEvery int
	// EvalSamples caps the test examples used per evaluation (0 = all).
	EvalSamples int

	// NonIID, when non-nil, uses the paper's non-IID partition.
	NonIID *NonIID

	// NonFinite has no effect, like sanitize.Screen's policy argument: Step
	// always refuses a non-finite submitted gradient. The field stays for
	// the callers that still set it.
	NonFinite sanitize.Policy

	// Seed drives every random choice of the run. Each pipeline stage
	// derives its own RNG stream from it (model init, partition, attack
	// randomness, arrival permutation, participation, client batching), so
	// changing one stage's policy perturbs no other stream.
	Seed int64

	// Workers bounds the in-round parallelism (0 = GOMAXPROCS,
	// 1 = sequential): the concurrent local gradient computations —
	// each worker owns a model replica and every client keeps its own RNG
	// stream — and, through aggregate.SetWorkers, the parallel kernels of
	// the aggregation rule (Krum/Bulyan pairwise distances, DnC power
	// iteration, GeoMed/trimmed-mean reductions). Both phases follow the
	// internal/parallel reduction discipline, so the results are
	// byte-identical for any worker count.
	Workers int

	// RoundHook, when non-nil, observes every round (used by the Fig. 2
	// sign-statistics experiment and by tests).
	RoundHook func(*RoundState)
}

func (c *Config) validate() error {
	switch {
	case c.Dataset == nil:
		return errors.New("fl: Config.Dataset is required")
	case c.NewModel == nil:
		return errors.New("fl: Config.NewModel is required")
	case c.Rule == nil && c.Pipeline.Defense == nil:
		return errors.New("fl: Config.Rule is required")
	case c.Clients <= 0:
		return fmt.Errorf("fl: %d clients invalid", c.Clients)
	case c.NumByz < 0 || c.NumByz >= c.Clients:
		return fmt.Errorf("fl: %d Byzantine of %d clients invalid", c.NumByz, c.Clients)
	case c.Rounds <= 0:
		return fmt.Errorf("fl: %d rounds invalid", c.Rounds)
	case c.BatchSize <= 0:
		return fmt.Errorf("fl: batch size %d invalid", c.BatchSize)
	case c.LR <= 0 && c.Pipeline.Update == nil:
		return fmt.Errorf("fl: learning rate %v invalid", c.LR)
	}
	return nil
}

// Simulation is a configured, ready-to-run federated training session.
type Simulation struct {
	cfg      Config
	model    nn.Classifier
	clients  []*Client
	pipe     Pipeline
	attRng   *rand.Rand
	permRng  *rand.Rand
	partRng  *rand.Rand
	codecRng *rand.Rand
	global   []float64
	workers  int
	// replicas are the per-worker model copies of the parallel gradient
	// path; replicas[0] is the main model. scratch[w] is worker w's reusable
	// local-compute buffers (see ReplicaCompute); between rounds worker 0's
	// also serves the evaluations (see evaluate).
	replicas []nn.Classifier
	scratch  []*workerScratch
	// evalRng and evalPerm draw the sampled evaluations' test indices
	// (see evaluate); both are built by the first one.
	evalRng  *rand.Rand
	evalPerm []int

	// The round arenas, grown in the first Step and reused by every later
	// one: localGrads backs the cohort's local gradients (participant i at
	// [i*d, (i+1)*d), see LocalEnv), and slots[i] is arrival slot i's codec
	// stage state (see codecSlot). Nothing backed by them outlives Step (see
	// RoundState). stepScratch is aggregate.Step's; a round carries no
	// staleness, so the step never merges into it.
	localGrads  []float64
	slots       []codecSlot
	stepScratch aggregate.StepScratch

	// Server learning (FLTrust-style rules): the defense aggregates against
	// a reference gradient the server computes each round on its own root
	// dataset, into rootGrad (see rootGradient). The fields are nil unless
	// the rule implements aggregate.ServerLearner, so classic runs pay
	// nothing and draw no extra randomness.
	learner    aggregate.ServerLearner
	rootClient *Client
	rootGrad   []float64

	// Adaptive-adversary feedback, recorded only when the adversary
	// declares NeedsHistory (static attacks pay nothing).
	adaptive bool
	history  []attack.Observation
}

// New prepares a simulation: builds the model, partitions the data,
// provisions the clients (poisoning Byzantine local data when the attack
// is a data poisoner), and resolves the round pipeline's default stages.
func New(cfg Config) (*Simulation, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.EvalEvery <= 0 {
		cfg.EvalEvery = 10
	}
	att := cfg.Attack
	if att == nil {
		att = attack.NewNone()
	}

	modelRng := tensor.NewRNG(cfg.Seed + 1)
	partRng := tensor.NewRNG(cfg.Seed + 2)
	attRng := tensor.NewRNG(cfg.Seed + 3)
	permRng := tensor.NewRNG(cfg.Seed + 4)
	// The participation stage draws from its own derived stream, so a
	// custom stage that samples a cohort perturbs neither the attack nor
	// the arrival permutation. FullParticipation never draws from it.
	participationRng := tensor.NewRNG(cfg.Seed + 5)
	// The codec stage likewise owns a derived stream: a codec that declares
	// itself Stochastic (qsgd) consumes it per submitted gradient in arrival
	// order, one slot after another; the others never touch it and encode
	// on the round's workers.
	codecRng := tensor.NewRNG(cfg.Seed + 6)

	model, err := cfg.NewModel(modelRng)
	if err != nil {
		return nil, fmt.Errorf("fl: building model: %w", err)
	}

	var parts [][]int
	if cfg.NonIID != nil {
		shards := cfg.NonIID.ShardsPerClient
		if shards <= 0 {
			shards = 2
		}
		parts, err = data.PartitionNonIID(partRng, cfg.Dataset.Train, cfg.Clients, cfg.NonIID.S, shards)
	} else {
		parts, err = data.PartitionIID(partRng, len(cfg.Dataset.Train), cfg.Clients)
	}
	if err != nil {
		return nil, fmt.Errorf("fl: partitioning: %w", err)
	}

	poisoner, _ := att.(attack.DataPoisoner)
	clients := make([]*Client, cfg.Clients)
	for i := range clients {
		local, err := data.Subset(cfg.Dataset.Train, parts[i])
		if err != nil {
			return nil, err
		}
		byz := i < cfg.NumByz
		if byz && poisoner != nil {
			local, err = poisoner.PoisonData(local, cfg.Dataset.Classes)
			if err != nil {
				return nil, fmt.Errorf("fl: poisoning client %d: %w", i, err)
			}
		}
		sampler, err := data.NewSampler(tensor.NewRNG(cfg.Seed+100+int64(i)), local)
		if err != nil {
			return nil, fmt.Errorf("fl: client %d: %w", i, err)
		}
		clients[i] = &Client{ID: i, Byzantine: byz, Sampler: sampler}
	}

	// Resolve the pipeline: nil stages fall back to the classic engine
	// behavior.
	pipe := cfg.Pipeline
	if pipe.Participation == nil {
		pipe.Participation = FullParticipation{}
	}
	if pipe.Local == nil {
		pipe.Local = ReplicaCompute{}
	}
	if pipe.Adversary == nil {
		pipe.Adversary = attack.Promote(att)
	}
	if pipe.Codec == nil {
		pipe.Codec = codec.IdentityCodec{}
	}
	if pipe.Defense == nil {
		pipe.Defense = RuleDefense{Rule: cfg.Rule}
	}
	if pipe.Update == nil {
		pipe.Update = SGDUpdate{Opt: nn.NewSGD(cfg.LR, cfg.Momentum, cfg.WeightDecay)}
	}

	// The aggregation kernels parallelize over gradient coordinates as well
	// as clients, so they get the unclamped worker count; the gradient
	// phase is bounded by one replica per client.
	resolved := parallel.Resolve(cfg.Workers)
	if rd, ok := pipe.Defense.(RuleDefense); ok {
		aggregate.SetWorkers(rd.Rule, resolved)
	} else if cfg.Rule != nil {
		aggregate.SetWorkers(cfg.Rule, resolved)
	}
	workers := resolved
	if workers > cfg.Clients {
		workers = cfg.Clients
	}
	// Workers beyond the first need their own model replica to compute
	// gradients on. Replica init weights are immediately overwritten by the
	// global parameters each round, so a throwaway RNG keeps the main
	// model's seeded streams untouched.
	replicas := make([]nn.Classifier, workers)
	replicas[0] = model
	for w := 1; w < workers; w++ {
		r, err := cfg.NewModel(tensor.NewRNG(cfg.Seed + 1000 + int64(w)))
		if err != nil {
			return nil, fmt.Errorf("fl: building worker replica %d: %w", w, err)
		}
		replicas[w] = r
	}
	scratch := make([]*workerScratch, workers)
	for w := range scratch {
		scratch[w] = &workerScratch{}
	}

	s := &Simulation{
		cfg:      cfg,
		model:    model,
		clients:  clients,
		pipe:     pipe,
		attRng:   attRng,
		permRng:  permRng,
		partRng:  participationRng,
		codecRng: codecRng,
		global:   model.ParamVector(),
		workers:  workers,
		replicas: replicas,
		scratch:  scratch,
		adaptive: pipe.Adversary.NeedsHistory(),
	}
	if err := s.provisionServerLearner(); err != nil {
		return nil, err
	}
	return s, nil
}

// provisionServerLearner detects an aggregate.ServerLearner behind the
// defense stage (unwrapping the registry's finite guard) and provisions the
// server's root dataset for it: RootSize examples sampled from the training
// pool, batched by a sampler on its own derived RNG stream (cfg.Seed+8).
// The stream exists only for server-learning runs — every other
// configuration creates no RNG and draws nothing, so its round-by-round
// randomness is bit-identical to builds that predate the hook.
func (s *Simulation) provisionServerLearner() error {
	rd, ok := s.pipe.Defense.(RuleDefense)
	if !ok {
		return nil
	}
	learner, ok := aggregate.Unwrap(rd.Rule).(aggregate.ServerLearner)
	if !ok {
		return nil
	}
	rootRng := tensor.NewRNG(s.cfg.Seed + 8)
	size := learner.RootSize()
	if size < 1 {
		size = 1
	}
	if size > len(s.cfg.Dataset.Train) {
		size = len(s.cfg.Dataset.Train)
	}
	idx := tensor.SampleIndices(rootRng, len(s.cfg.Dataset.Train), size)
	root, err := data.Subset(s.cfg.Dataset.Train, idx)
	if err != nil {
		return fmt.Errorf("fl: sampling server root dataset: %w", err)
	}
	sampler, err := data.NewSampler(rootRng, root)
	if err != nil {
		return fmt.Errorf("fl: server root dataset: %w", err)
	}
	s.learner = learner
	// ID -1: the root client is server-side and never participates.
	s.rootClient = &Client{ID: -1, Sampler: sampler}
	s.rootGrad = make([]float64, len(s.global))
	return nil
}

// rootGradient computes the server-learning reference gradient at the
// current global parameters: the root client's minibatch as a one-client
// tile of the local engine, on worker 0's replica (the main model, which
// the local stage leaves positioned at the global vector) and scratch. It
// lands in rootGrad, never in the gradient arena, which the round's
// submitted gradients still alias. The root client's sampler is its own
// stream, so the result is the same for any worker count and perturbs no
// client's draws.
func (s *Simulation) rootGradient() ([]float64, error) {
	env := s.localEnv(0)
	env.grads = s.rootGrad
	outs, err := ReplicaCompute{}.Compute(env, []*Client{s.rootClient})
	if err != nil {
		return nil, err
	}
	return outs[0].Grad, outs[0].Err
}

// Model returns the global model (parameters reflect the latest round).
func (s *Simulation) Model() nn.Classifier { return s.model }

// Pipeline returns the resolved round pipeline.
func (s *Simulation) Pipeline() Pipeline { return s.pipe }

// localEnv is the engine state the LocalCompute stage runs on for a cohort
// of the given size, growing the gradient arena to fit it.
func (s *Simulation) localEnv(cohort int) *LocalEnv {
	n := cohort * len(s.global)
	if len(s.localGrads) < n {
		s.localGrads = make([]float64, n)
	}
	return &LocalEnv{
		Dataset:   s.cfg.Dataset,
		BatchSize: s.cfg.BatchSize,
		Global:    s.global,
		Replicas:  s.replicas,
		Workers:   s.workers,
		scratch:   s.scratch,
		grads:     s.localGrads[:n],
	}
}

// resolveParticipants validates the participation stage's output and maps
// it to clients.
func (s *Simulation) resolveParticipants(ids []int) ([]*Client, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("fl: participation %s selected no clients", s.pipe.Participation.Name())
	}
	out := make([]*Client, len(ids))
	prev := -1
	for i, id := range ids {
		if id < 0 || id >= len(s.clients) {
			return nil, fmt.Errorf("fl: participation %s selected invalid client %d", s.pipe.Participation.Name(), id)
		}
		if id <= prev {
			return nil, fmt.Errorf("fl: participation %s output not strictly ascending at %d", s.pipe.Participation.Name(), id)
		}
		prev = id
		out[i] = s.clients[id]
	}
	return out, nil
}

// Step executes one synchronous round through the six pipeline stages:
// participant selection, local gradients, attack crafting, the codec wire
// round trip, robust aggregation and the server update. It returns the
// round metrics.
//
// The round's gradients live in the Simulation's arenas, so every stage
// sees them only for the duration of its call: the adversary's Context
// slices, the defense's input and the hook's RoundState are overwritten by
// the next Step, and a stage that keeps a vector across rounds copies it.
func (s *Simulation) Step(round int) (*RoundMetrics, error) {
	if err := s.model.SetParamVector(s.global); err != nil {
		return nil, err
	}

	// Stage 1: participation.
	ids, err := s.pipe.Participation.Select(s.partRng, round, len(s.clients))
	if err != nil {
		return nil, fmt.Errorf("fl: participation %s: %w", s.pipe.Participation.Name(), err)
	}
	participants, err := s.resolveParticipants(ids)
	if err != nil {
		return nil, err
	}

	// Stage 2: local compute.
	outs, err := s.pipe.Local.Compute(s.localEnv(len(participants)), participants)
	if err != nil {
		return nil, fmt.Errorf("fl: local stage %s: %w", s.pipe.Local.Name(), err)
	}
	if len(outs) != len(participants) {
		return nil, fmt.Errorf("fl: local stage %s produced %d gradients, want %d",
			s.pipe.Local.Name(), len(outs), len(participants))
	}

	// Reduce in participant order so the loss accumulation, gradient
	// grouping and first-divergence detection are independent of how the
	// local stage was scheduled.
	var benign, byzOwn [][]float64
	var lossSum float64
	var lossCnt int
	for i, c := range participants {
		o := outs[i]
		if o.Err != nil {
			return nil, o.Err
		}
		if !gradientHealthy(o.Grad) {
			// The model has left the numerically usable range (a successful
			// destructive attack in an earlier round). Detect it before the
			// adversary — whose distance computations would overflow or
			// propagate NaNs — sees it.
			return nil, fmt.Errorf("%w: unusable gradient from client %d in round %d",
				ErrDiverged, c.ID, round)
		}
		if c.Byzantine {
			byzOwn = append(byzOwn, o.Grad)
		} else {
			benign = append(benign, o.Grad)
			lossSum += o.Loss
			lossCnt++
		}
	}

	// Stage 3: adversary.
	var malicious [][]float64
	switch {
	case len(byzOwn) == 0:
		// No Byzantine client participates this round.
	case len(benign) == 0:
		// A round whose custom participation stage selected no benign
		// client: the omniscient adversary has no statistics to mimic, so
		// the cohort submits its own honest gradients.
		malicious = tensor.CloneAll(byzOwn)
	default:
		ctx := &attack.Context{
			Benign: benign, ByzOwn: byzOwn, Rng: s.attRng,
			Round: round, History: s.history,
		}
		malicious, err = s.pipe.Adversary.Craft(ctx)
		if err != nil {
			return nil, fmt.Errorf("fl: attack %s: %w", s.pipe.Adversary.Name(), err)
		}
		if len(malicious) != len(byzOwn) {
			return nil, fmt.Errorf("fl: attack %s produced %d gradients, want %d",
				s.pipe.Adversary.Name(), len(malicious), len(byzOwn))
		}
	}

	// Submit in a fresh random arrival order each round: gradients are
	// anonymous at the server (threat-model assumption), so no rule may
	// exploit positions.
	n := len(benign) + len(malicious)
	grads := make([][]float64, n)
	byzMask := make([]bool, n)
	perm := s.permRng.Perm(n)
	for i, g := range benign {
		grads[perm[i]] = g
	}
	for i, g := range malicious {
		pos := perm[len(benign)+i]
		grads[pos] = g
		byzMask[pos] = true
	}

	// Ingest screening of the adversary's vectors: one norm pass per crafted
	// gradient. The benign ones passed the local-output check above, and an
	// attack never writes its Context's vectors (conformance's
	// CheckAttackInputRetention), so they are not read again. A non-finite
	// gradient is refused and dropped with its Byzantine-mask slot; a finite
	// one whose norm is beyond the usable range means the model has
	// diverged. Only the survivors reach the wire.
	var screened int
	kept, keptMask := grads[:0], byzMask[:0]
	for i, g := range grads {
		if byzMask[i] && !gradientHealthy(g) {
			if tensor.AllFinite(g) {
				return nil, fmt.Errorf("%w: unusable submitted gradient in round %d", ErrDiverged, round)
			}
			screened++
			continue
		}
		kept = append(kept, g)
		keptMask = append(keptMask, byzMask[i])
	}
	grads, byzMask = kept, keptMask
	if len(grads) == 0 {
		return nil, fmt.Errorf("%w: every submitted gradient was non-finite in round %d", ErrDiverged, round)
	}

	// Stage 4: codec. Each submitted gradient crosses the wire in encoded
	// form; the defense sees only what survives the round trip.
	wireBytes, err := s.roundTrip(grads)
	if err != nil {
		return nil, err
	}

	// Server-learning reference gradient (FLTrust-style rules), computed on
	// the server's root dataset (see rootGradient).
	if s.rootClient != nil {
		g, err := s.rootGradient()
		if err != nil {
			return nil, fmt.Errorf("fl: server root gradient: %w", err)
		}
		if !gradientHealthy(g) {
			return nil, fmt.Errorf("%w: unusable server root gradient in round %d", ErrDiverged, round)
		}
		s.learner.SetServerGradient(g)
	}

	// Stages 5 and 6: defense, then the server update. The round's buffer
	// carries no staleness, so the step is the defense's own aggregate.
	merged, res, out, err := aggregate.Step(func(g [][]float64) (*aggregate.Result, error) {
		return s.pipe.Defense.Aggregate(round, g)
	}, grads, nil, 0, &s.stepScratch)
	switch out {
	case aggregate.NonFiniteMerge:
		return nil, fmt.Errorf("%w: rule %s produced a non-finite aggregate in round %d",
			ErrDiverged, s.pipe.Defense.Name(), round)
	case aggregate.RuleFailed, aggregate.KeptNone:
		return nil, fmt.Errorf("fl: rule %s: %w", s.pipe.Defense.Name(), err)
	}
	if err := s.pipe.Update.Apply(round, s.global, merged); err != nil {
		return nil, err
	}

	if s.cfg.RoundHook != nil {
		// RoundState is materialized only for hooked runs.
		s.cfg.RoundHook(&RoundState{
			Round:        round,
			Participants: ids,
			Grads:        grads,
			WireBytes:    wireBytes,
			ByzMask:      byzMask,
			Honest:       benign,
			Result:       res,
		})
	}

	m := &RoundMetrics{
		Observation: attack.Observe(round, res.Selected, byzMask),
		TrainLoss:   lossSum / float64(max(lossCnt, 1)),
		WireBytes:   wireBytes, NonFiniteScreened: screened,
	}
	if s.adaptive {
		// The omniscient attacker knows which arrival positions were its
		// own, so it reads back the round's selection tally.
		s.history = append(s.history, m.Observation)
	}
	return m, nil
}

// codecSlot is one arrival slot's codec-stage state. decoded is the slot's
// decode destination: empty on its first round, so that decode allocates
// and its result becomes the slot. bytes and err are the slot's wire size
// and error in the current round.
type codecSlot struct {
	decoded []float64
	bytes   int
	err     error
}

// roundTrip encodes g and decodes the payload into the slot, recording its
// wire size.
func (sl *codecSlot) roundTrip(c codec.Codec, g []float64, rng *rand.Rand) error {
	enc, err := c.Encode(g, rng)
	if err != nil {
		return fmt.Errorf("fl: codec %s encode: %w", c.Name(), err)
	}
	dec, err := c.Decode(enc.WithDst(sl.decoded))
	if err != nil {
		return fmt.Errorf("fl: codec %s decode: %w", c.Name(), err)
	}
	if len(dec) != len(g) {
		return fmt.Errorf("fl: codec %s round trip changed dimension %d → %d", c.Name(), len(g), len(dec))
	}
	sl.decoded, sl.bytes = dec, enc.Bytes()
	return nil
}

// codecGrain is the fewest arrival slots a codec-stage worker takes: the
// stage splits over min(workers, slots/codecGrain) workers, so a cohort
// below twice the grain runs inline. Concurrent Encode and Decode calls
// overlap in time, and a harness that times each call and sums the spans
// reads their CPU time, not the stage's wall time; the repository
// benchmark's per-stage table does that, and checks that the stages add up
// to the round at its 20-slot smoke size. The grain keeps such small
// cohorts inline (the smoke run's whole stage takes under a millisecond)
// and splits cross-device cohorts (sim_wide's 200 slots), where the stage
// is a quarter of the round. Tests lower it to split small cohorts.
var codecGrain = 32

// roundTrip is the codec stage: grads[i] is replaced by what arrival slot
// i's payload decodes to, and the round's wire bytes are returned. A codec
// that draws no randomness runs on the round's workers (see codecGrain),
// encoding with a nil rng; a stochastic one runs inline in arrival order on
// the stage's own stream, so its draws are the same for any worker count.
// Either way slot i writes only grads[i] and slots[i], and the error
// returned is that of the lowest failing arrival slot.
func (s *Simulation) roundTrip(grads [][]float64) (int64, error) {
	if len(s.slots) < len(grads) {
		s.slots = append(s.slots, make([]codecSlot, len(grads)-len(s.slots))...)
	}
	slots := s.slots[:len(grads)]
	c, rng := s.pipe.Codec, (*rand.Rand)(nil)
	workers := min(s.workers, len(grads)/codecGrain)
	if c.Stochastic() {
		workers, rng = 1, s.codecRng
	}
	parallel.For(workers, len(grads), func(_, start, end int) {
		// A chunk stops at its first failure: the slots after it are never
		// read, because the scan below returns at or before it.
		for i := start; i < end; i++ {
			if slots[i].err = slots[i].roundTrip(c, grads[i], rng); slots[i].err != nil {
				return
			}
			grads[i] = slots[i].decoded
		}
	})
	var wire int64
	for _, sl := range slots {
		if sl.err != nil {
			return 0, sl.err
		}
		wire += int64(sl.bytes)
	}
	return wire, nil
}

// ErrDiverged marks a training run whose model left the finite range —
// the intended outcome of a successful destructive attack. Run treats it
// as a terminal training state, not a harness failure.
var ErrDiverged = errors.New("fl: training diverged")

// gradientHealthy reports whether a gradient is usable by the attacks and
// aggregation rules downstream: every entry finite AND the norm small
// enough that squared pairwise distances cannot overflow float64.
func gradientHealthy(g []float64) bool {
	const maxNorm = 1e140 // (2·maxNorm)² is still far below math.MaxFloat64
	n := tensor.Norm(g)
	return !math.IsNaN(n) && n <= maxNorm
}

// Run executes the configured number of rounds and returns the aggregated
// result (accuracy trace, best accuracy, selection rates). A run whose
// model diverges (ErrDiverged) stops early with Diverged set and keeps the
// metrics collected so far: a destroyed model is a result, not an error.
func (s *Simulation) Run() (*RunResult, error) {
	result := &RunResult{RuleName: s.pipe.Defense.Name(), AttackName: s.pipe.Adversary.Name()}
	for t := 0; t < s.cfg.Rounds; t++ {
		m, err := s.Step(t)
		if errors.Is(err, ErrDiverged) {
			result.Diverged = true
			return result, nil
		}
		if err != nil {
			return nil, err
		}
		if (t+1)%s.cfg.EvalEvery == 0 || t == s.cfg.Rounds-1 {
			if err := s.model.SetParamVector(s.global); err != nil {
				return nil, err
			}
			acc, err := s.evaluate(s.cfg.EvalSamples, s.cfg.Seed+int64(t))
			if err != nil {
				return nil, err
			}
			m.TestAccuracy = acc
			m.Evaluated = true
		}
		result.Add(m)
	}
	return result, nil
}

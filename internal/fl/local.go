package fl

import (
	"fmt"

	"github.com/signguard/signguard/internal/data"
	"github.com/signguard/signguard/internal/nn"
	"github.com/signguard/signguard/internal/parallel"
)

// ReplicaCompute is the local stage — the one engine: participants are
// partitioned contiguously over the worker model replicas, and each worker
// trains its whole client range in cache-bounded stacked tiles. Instead of
// one forward/backward pass per client, a tile stacks the minibatches of as
// many clients as fit in batchTileRows into one matrix, runs a single
// forward/backward per layer (nn.Classifier.BatchedLossAndGrad), and
// de-interleaves the per-client gradients from the batch dimension. Both
// model families batch (FeedForward image stacks and the text RNN). The
// server's FLTrust root gradient is the same pass over a one-client tile
// (Simulation.rootGradient).
//
// Exactness contract: every client draws from its own sampler stream,
// segments are processed in participant order, and the segmented kernels
// accumulate each client's gradient terms in the exact order a standalone
// per-client pass uses — so the outputs are byte-identical
// (math.Float64bits) to the per-client loop for any worker count, pinned by
// TestGoldenBatchedEquivalence.
//
// The stage is a stateless zero value: each replica owns its layer
// buffers, and the per-worker tile-assembly scratch and the round's
// gradient arena belong to the Simulation, next to the replicas the scratch
// is indexed like, and reach the stage through LocalEnv — so a
// ReplicaCompute{} named from outside the engine (a wrapping decorator,
// say) runs on the same warm buffers as the default. Neither replicas nor
// scratch are shared across goroutines, each tile writes only its own
// clients' stretch of the gradient arena, and reuse cannot change results
// because every buffer is either fully overwritten or explicitly zeroed
// before use (see nn.Classifier.BatchedLossAndGrad). The returned gradients
// alias the arena: they are valid until the next Compute on the same env's
// arena — the Simulation's next round.
type ReplicaCompute struct{}

// Name implements LocalCompute.
func (ReplicaCompute) Name() string { return "replica-sgd" }

// Compute implements LocalCompute.
func (ReplicaCompute) Compute(env *LocalEnv, participants []*Client) ([]ClientGrad, error) {
	return overReplicas(env, participants, func(w int, m nn.Classifier, outs []ClientGrad, start, end int) {
		sc := env.workerScratch(w)
		for tile := start; tile < end; {
			next := sc.computeTile(env, m, participants, outs, tile, end)
			if next <= tile { // a failed tile reports through outs; stop the range
				return
			}
			tile = next
		}
	}), nil
}

// overReplicas partitions participants contiguously over the worker model
// replicas and runs train on each worker's range [start,end) with its
// replica positioned at env.Global. Each participant is visited by exactly
// one worker, so the outputs do not depend on the worker count.
func overReplicas(env *LocalEnv, participants []*Client, train func(w int, m nn.Classifier, outs []ClientGrad, start, end int)) []ClientGrad {
	outs := make([]ClientGrad, len(participants))
	workers := min(env.Workers, len(participants))
	if workers <= 1 {
		// Replicas[0] is the main model, already positioned at Global.
		train(0, env.Replicas[0], outs, 0, len(participants))
		return outs
	}
	parallel.For(workers, len(participants), func(w, start, end int) {
		m := env.Replicas[w]
		if err := m.SetParamVector(env.Global); err != nil {
			for i := start; i < end; i++ {
				outs[i].Err = err
			}
			return
		}
		train(w, m, outs, start, end)
	})
	return outs
}

// workerScratch is one worker's reusable tile input: the stacked examples,
// their segmentation, and the assembler that turns them into the model
// input.
type workerScratch struct {
	batches []data.Example
	bounds  []int
	assembler
}

// workerScratch returns worker w's scratch. A hand-built env with no engine
// behind it has none: its tiles assemble into fresh buffers.
func (env *LocalEnv) workerScratch(w int) *workerScratch {
	if w < len(env.scratch) {
		return env.scratch[w]
	}
	return &workerScratch{}
}

// batchTileRows caps how many stacked rows one forward/backward pass
// carries. Stacking an entire 200-client cohort would push every layer's
// activation matrix far past the cache sizes, making the pass memory-bound
// and erasing the amortization win; tiles of this many rows keep the
// working set L2-resident while still spreading the per-pass fixed costs
// over dozens of clients. Tiling only groups whole client segments, so it
// cannot affect results.
const batchTileRows = 1024

// computeTile stacks the minibatches of as many clients from [start,end)
// as fit in batchTileRows (at least one), trains them in one pass, and
// returns the index after the last client it consumed.
func (sc *workerScratch) computeTile(env *LocalEnv, m nn.Classifier, participants []*Client, outs []ClientGrad, start, end int) int {
	// Draw minibatches in participant order (each from its own sampler
	// stream) until the tile is full, recording the row segmentation. Tail
	// batches at an epoch boundary may be smaller than BatchSize, so
	// segments are not necessarily equal-sized.
	sc.batches = sc.batches[:0]
	sc.bounds = append(sc.bounds[:0], 0)
	last := start
	for last < end && (last == start || len(sc.batches)+env.BatchSize <= batchTileRows) {
		b := participants[last].Sampler.Batch(env.BatchSize)
		sc.batches = append(sc.batches, b...)
		sc.bounds = append(sc.bounds, len(sc.batches))
		last++
	}

	fail := func(err error) {
		for i := start; i < last; i++ {
			outs[i] = ClientGrad{Err: err}
		}
	}
	in, labels, err := sc.assemble(env.Dataset, sc.batches, nil)
	if err != nil {
		fail(err)
		return start
	}
	segs, err := m.BatchedLossAndGrad(in, labels, sc.bounds, env.gradDst(start, last))
	if err != nil {
		fail(fmt.Errorf("fl: batched gradients for clients %d..%d: %w",
			participants[start].ID, participants[last-1].ID, err))
		return start
	}
	for k, s := range segs {
		outs[start+k] = ClientGrad{Grad: s.Grad, Loss: s.Loss}
	}
	return last
}

// gradDst returns the stretch of the round's gradient arena that
// participants [start,end) write into, or nil — fresh vectors — for an env
// without one.
func (env *LocalEnv) gradDst(start, end int) []float64 {
	if env.grads == nil {
		return nil
	}
	d := len(env.Global)
	return env.grads[start*d : end*d : end*d]
}

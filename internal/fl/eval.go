package fl

import (
	"errors"
	"fmt"
	"math/rand"

	"github.com/signguard/signguard/internal/attack"
	"github.com/signguard/signguard/internal/data"
	"github.com/signguard/signguard/internal/nn"
	"github.com/signguard/signguard/internal/tensor"
)

// assembler is the one way fl turns examples into a model input: the
// dense feature matrix or token row index, plus the label vector, built in
// buffers it reuses from call to call. Each worker's tiles, the
// Simulation's evaluations (on worker 0's) and BatchInput (on a fresh assembler) run
// through it. The input it returns is valid until its next assemble.
type assembler struct {
	labels []int
	tokens [][]int
	dense  tensor.Matrix
}

// assemble builds the input whose row i is examples[idx[i]], or
// examples[i] when idx is nil — gathering by index, so a sampled
// evaluation copies no example.
func (a *assembler) assemble(ds *data.Dataset, examples []data.Example, idx []int) (nn.Input, []int, error) {
	n := rowCount(examples, idx)
	if n == 0 {
		return nn.Input{}, nil, errors.New("fl: empty batch")
	}
	row := func(i int) *data.Example {
		if idx != nil {
			return &examples[idx[i]]
		}
		return &examples[i]
	}
	if cap(a.labels) < n {
		a.labels = make([]int, n)
	}
	labels := a.labels[:n]
	if ds.IsText() {
		if cap(a.tokens) < n {
			a.tokens = make([][]int, n)
		}
		tokens := a.tokens[:n]
		for i := range tokens {
			e := row(i)
			if e.Tokens == nil {
				return nn.Input{}, nil, fmt.Errorf("fl: example %d has no tokens in text dataset %s", i, ds.Name)
			}
			tokens[i] = e.Tokens
			labels[i] = e.Label
		}
		return nn.Input{Tokens: tokens}, labels, nil
	}
	d := ds.FeatureDim()
	if cap(a.dense.Data) < n*d {
		a.dense.Data = make([]float64, n*d)
	}
	a.dense.Rows, a.dense.Cols, a.dense.Data = n, d, a.dense.Data[:n*d]
	for i := range labels {
		e := row(i)
		if len(e.Features) != d {
			return nn.Input{}, nil, fmt.Errorf("fl: example %d has %d features, want %d", i, len(e.Features), d)
		}
		copy(a.dense.Row(i), e.Features)
		labels[i] = e.Label
	}
	return nn.Input{Dense: &a.dense}, labels, nil
}

// rowCount is how many rows assemble(ds, examples, idx) builds.
func rowCount(examples []data.Example, idx []int) int {
	if idx != nil {
		return len(idx)
	}
	return len(examples)
}

// BatchInput converts a slice of examples into the model-facing batch
// representation (dense matrix or token sequences) plus the label vector,
// in buffers of its own.
func BatchInput(ds *data.Dataset, batch []data.Example) (nn.Input, []int, error) {
	return new(assembler).assemble(ds, batch, nil)
}

// evalChunk is how many examples one Predict call of an evaluation carries.
const evalChunk = 256

// count runs model.Predict over the rows assemble(ds, examples, idx) would
// build, evalChunk rows at a time, and returns how many (prediction,
// label) pairs hit accepts.
func (a *assembler) count(model nn.Classifier, ds *data.Dataset, examples []data.Example, idx []int, hit func(pred, label int) bool) (int, error) {
	n := rowCount(examples, idx)
	var hits int
	for lo := 0; lo < n; lo += evalChunk {
		hi := min(lo+evalChunk, n)
		chunk, sub := examples, idx
		if idx == nil {
			chunk = examples[lo:hi]
		} else {
			sub = idx[lo:hi]
		}
		in, labels, err := a.assemble(ds, chunk, sub)
		if err != nil {
			return 0, err
		}
		preds, err := model.Predict(in)
		if err != nil {
			return 0, err
		}
		for i, p := range preds {
			if hit(p, labels[i]) {
				hits++
			}
		}
	}
	return hits, nil
}

// accuracy returns the accuracy (in percent) of the model over the rows
// assemble(ds, examples, idx) would build.
func (a *assembler) accuracy(model nn.Classifier, ds *data.Dataset, examples []data.Example, idx []int) (float64, error) {
	n := rowCount(examples, idx)
	if n == 0 {
		return 0, errors.New("fl: no evaluation examples")
	}
	correct, err := a.count(model, ds, examples, idx, func(pred, label int) bool { return pred == label })
	if err != nil {
		return 0, err
	}
	return 100 * float64(correct) / float64(n), nil
}

// Evaluate returns the accuracy (in percent) of the model over the given
// examples, processed in chunks.
func Evaluate(model nn.Classifier, ds *data.Dataset, examples []data.Example) (float64, error) {
	return new(assembler).accuracy(model, ds, examples, nil)
}

// EvaluateASR returns the attack success rate (in percent) of a backdoor
// trigger: the fraction of examples that the model classifies as target
// once the trigger is stamped into their input. Examples whose true label
// already is the target class are excluded — predicting them as target
// needs no backdoor. triggerLen <= 0 selects attack.DefaultTriggerLen's
// geometry via StampTrigger's own default.
func EvaluateASR(model nn.Classifier, ds *data.Dataset, examples []data.Example, target, triggerLen int) (float64, error) {
	triggered := make([]data.Example, 0, len(examples))
	for _, e := range examples {
		if e.Label == target {
			continue
		}
		triggered = append(triggered, attack.StampTrigger(e, triggerLen))
	}
	if len(triggered) == 0 {
		return 0, fmt.Errorf("fl: no non-target examples to evaluate ASR on (target %d)", target)
	}
	hits, err := new(assembler).count(model, ds, triggered, nil, func(pred, _ int) bool { return pred == target })
	if err != nil {
		return 0, err
	}
	return 100 * float64(hits) / float64(len(triggered)), nil
}

// evaluate returns the global model's accuracy (in percent) on at most
// limit test examples drawn deterministically from seed (limit <= 0
// evaluates them all). Sub-sampling keeps the dense evaluation grid of the
// experiment sweeps affordable. The sample is the first limit entries of
// tensor.NewRNG(seed).Perm(len(test)), drawn by reseeding the Simulation's
// evalRng into its evalPerm, and gathered by index through worker 0's
// assembler, idle between rounds: a warm evaluation builds no RNG, index
// slice or input buffer.
func (s *Simulation) evaluate(limit int, seed int64) (float64, error) {
	test := s.cfg.Dataset.Test
	var idx []int
	if limit > 0 && limit < len(test) {
		if s.evalRng == nil {
			s.evalRng = tensor.NewRNG(seed)
		} else {
			s.evalRng.Seed(seed)
		}
		s.evalPerm = permInto(s.evalRng, s.evalPerm, len(test))
		idx = s.evalPerm[:limit]
	}
	return s.scratch[0].accuracy(s.model, s.cfg.Dataset, test, idx)
}

// permInto returns rng.Perm(n), drawn in Perm's exact order into buf's
// storage when it has room.
func permInto(rng *rand.Rand, buf []int, n int) []int {
	if cap(buf) < n {
		buf = make([]int, n)
	}
	m := buf[:n]
	for i := range m {
		j := rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m
}

// Package data provides the datasets and partitioning schemes for the
// SignGuard reproduction. The paper evaluates on MNIST, Fashion-MNIST,
// CIFAR-10 and AG-News; those corpora are not available offline, and the
// defenses under study only ever observe gradients, so this package
// substitutes synthetic generators whose difficulty (and therefore the
// no-attack baseline accuracy) is calibrated per dataset analog:
//
//   - SynthImage: a Gaussian prototype mixture over C×H×W images with
//     spatially smoothed class prototypes (so convolutions have local
//     structure to exploit);
//   - SynthText: a topic-model token-sequence generator for the recurrent
//     text classifier.
//
// The IID and non-IID client partitioners implement the paper's exact
// schemes, including the "s-fraction IID + sort-and-shard" non-IID split.
package data

import (
	"errors"
	"fmt"
	"math/rand"
)

// Example is a single labelled training sample. Exactly one of Features
// (dense image-like input) or Tokens (text input) is non-nil.
type Example struct {
	Features []float64
	Tokens   []int
	Label    int
}

// Dataset bundles a train/test split with the metadata models need.
type Dataset struct {
	Name    string
	Train   []Example
	Test    []Example
	Classes int

	// Image metadata (Features datasets).
	C, H, W int

	// Text metadata (Tokens datasets).
	Vocab  int
	SeqLen int
}

// IsText reports whether the dataset consists of token sequences.
func (d *Dataset) IsText() bool { return d.Vocab > 0 }

// FeatureDim returns the dense input dimensionality (0 for text datasets).
func (d *Dataset) FeatureDim() int { return d.C * d.H * d.W }

// FlipLabels returns a copy of xs with every label l replaced by
// classes-1-l, the paper's label-flipping data poisoning attack.
func FlipLabels(xs []Example, classes int) ([]Example, error) {
	if classes <= 0 {
		return nil, fmt.Errorf("data: FlipLabels with %d classes", classes)
	}
	out := make([]Example, len(xs))
	for i, e := range xs {
		if e.Label < 0 || e.Label >= classes {
			return nil, fmt.Errorf("data: label %d out of [0,%d)", e.Label, classes)
		}
		out[i] = e
		out[i].Label = classes - 1 - e.Label
	}
	return out, nil
}

// Subset returns the examples of xs selected by idx.
func Subset(xs []Example, idx []int) ([]Example, error) {
	out := make([]Example, len(idx))
	for i, j := range idx {
		if j < 0 || j >= len(xs) {
			return nil, fmt.Errorf("data: subset index %d out of [0,%d)", j, len(xs))
		}
		out[i] = xs[j]
	}
	return out, nil
}

// ErrNoExamples is returned when an operation needs a non-empty sample set.
var ErrNoExamples = errors.New("data: no examples")

// Sampler yields mini-batches from a fixed pool of examples, reshuffling
// after each pass so that successive rounds see fresh permutations — the
// standard local-SGD data pipeline.
type Sampler struct {
	pool  []Example
	order []int
	pos   int
	rng   *rand.Rand
}

// NewSampler builds a sampler over the pool using the given RNG.
func NewSampler(rng *rand.Rand, pool []Example) (*Sampler, error) {
	if len(pool) == 0 {
		return nil, ErrNoExamples
	}
	s := &Sampler{pool: pool, rng: rng}
	s.reshuffle()
	return s, nil
}

func (s *Sampler) reshuffle() {
	s.order = s.rng.Perm(len(s.pool))
	s.pos = 0
}

// Batch returns the next mini-batch of up to size examples. Batches never
// span a reshuffle boundary, so a tail batch may be smaller than size.
func (s *Sampler) Batch(size int) []Example {
	if size <= 0 {
		return nil
	}
	if s.pos >= len(s.order) {
		s.reshuffle()
	}
	end := s.pos + size
	if end > len(s.order) {
		end = len(s.order)
	}
	out := make([]Example, 0, end-s.pos)
	for _, j := range s.order[s.pos:end] {
		out = append(out, s.pool[j])
	}
	s.pos = end
	return out
}

// Size returns the number of examples in the pool.
func (s *Sampler) Size() int { return len(s.pool) }

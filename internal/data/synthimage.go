package data

import (
	"fmt"

	"github.com/signguard/signguard/internal/tensor"
)

// SynthImageConfig describes a Gaussian-prototype image mixture. Each class
// has a fixed prototype image; samples are prototype + white noise, so the
// ratio Margin/NoiseStd controls the Bayes error and therefore the
// achievable test accuracy of the analog dataset.
type SynthImageConfig struct {
	Name       string
	Classes    int
	C, H, W    int
	Train      int // number of training examples
	Test       int // number of test examples
	Margin     float64
	NoiseStd   float64
	SmoothPass int // box-blur passes applied to prototypes (spatial structure)
	// LabelNoise randomizes this fraction of *training* labels. Real deep
	// nets keep a persistent stochastic-gradient noise floor near the
	// optimum; label noise recreates that floor in the synthetic analogs,
	// which matters for the potency of variance-calibrated attacks (LIE,
	// Min-Max/Min-Sum). The test split stays clean.
	LabelNoise float64
	Seed       int64 // generator seed (prototypes + samples)
}

// Validate checks the configuration for obvious mistakes.
func (c *SynthImageConfig) Validate() error {
	switch {
	case c.Classes < 2:
		return fmt.Errorf("data: SynthImage needs >= 2 classes, got %d", c.Classes)
	case c.C <= 0 || c.H <= 0 || c.W <= 0:
		return fmt.Errorf("data: SynthImage shape %dx%dx%d invalid", c.C, c.H, c.W)
	case c.Train <= 0 || c.Test <= 0:
		return fmt.Errorf("data: SynthImage sizes train=%d test=%d invalid", c.Train, c.Test)
	case c.Margin <= 0 || c.NoiseStd <= 0:
		return fmt.Errorf("data: SynthImage margin=%v noise=%v must be positive", c.Margin, c.NoiseStd)
	case c.LabelNoise < 0 || c.LabelNoise >= 1:
		return fmt.Errorf("data: SynthImage label noise %v out of [0,1)", c.LabelNoise)
	}
	return nil
}

// GenerateSynthImage builds the dataset described by cfg. Generation is
// deterministic in cfg.Seed.
func GenerateSynthImage(cfg SynthImageConfig) (*Dataset, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := tensor.NewRNG(cfg.Seed)
	d := cfg.C * cfg.H * cfg.W

	// Class prototypes: random unit directions scaled to the margin, with
	// optional spatial smoothing so that nearby pixels are correlated and a
	// convolution kernel has real structure to detect.
	protos := make([][]float64, cfg.Classes)
	for k := range protos {
		p := tensor.RandUnitVector(rng, d)
		for pass := 0; pass < cfg.SmoothPass; pass++ {
			p = boxBlur(p, cfg.C, cfg.H, cfg.W)
		}
		if n := tensor.Norm(p); n > 0 {
			tensor.ScaleInPlace(p, cfg.Margin/n)
		}
		protos[k] = p
	}

	gen := func(n int, labelNoise float64) []Example {
		out := make([]Example, n)
		for i := range out {
			label := rng.Intn(cfg.Classes)
			x := tensor.Clone(protos[label])
			for j := range x {
				x[j] += cfg.NoiseStd * rng.NormFloat64()
			}
			if labelNoise > 0 && rng.Float64() < labelNoise {
				label = rng.Intn(cfg.Classes)
			}
			out[i] = Example{Features: x, Label: label}
		}
		return out
	}

	return &Dataset{
		Name:    cfg.Name,
		Train:   gen(cfg.Train, cfg.LabelNoise),
		Test:    gen(cfg.Test, 0),
		Classes: cfg.Classes,
		C:       cfg.C, H: cfg.H, W: cfg.W,
	}, nil
}

// boxBlur applies a 3x3 mean filter per channel, preserving the vector
// layout. Border pixels average over the in-bounds neighbourhood.
func boxBlur(x []float64, c, h, w int) []float64 {
	out := make([]float64, len(x))
	for ch := 0; ch < c; ch++ {
		off := ch * h * w
		for i := 0; i < h; i++ {
			for j := 0; j < w; j++ {
				var sum float64
				var cnt int
				for di := -1; di <= 1; di++ {
					for dj := -1; dj <= 1; dj++ {
						ni, nj := i+di, j+dj
						if ni < 0 || ni >= h || nj < 0 || nj >= w {
							continue
						}
						sum += x[off+ni*w+nj]
						cnt++
					}
				}
				out[off+i*w+j] = sum / float64(cnt)
			}
		}
	}
	return out
}

// The preset analogs below stand in for the paper's four datasets. The
// margin/noise ratios were calibrated so the no-attack training baselines
// land near the paper's benchmark accuracies (~99% MNIST, ~89%
// Fashion-MNIST, ~93% CIFAR-10, ~89% AG-News).

// MNISTLike returns the MNIST analog: easy 10-class 8×8 grayscale mixture.
func MNISTLike(seed int64, train, test int) (*Dataset, error) {
	return GenerateSynthImage(SynthImageConfig{
		Name: "mnist-like", Classes: 10, C: 1, H: 8, W: 8,
		Train: train, Test: test,
		Margin: 4.2, NoiseStd: 0.55, SmoothPass: 1, LabelNoise: 0.01, Seed: seed,
	})
}

// FashionLike returns the Fashion-MNIST analog: same shape, harder mixture.
func FashionLike(seed int64, train, test int) (*Dataset, error) {
	return GenerateSynthImage(SynthImageConfig{
		Name: "fashion-like", Classes: 10, C: 1, H: 8, W: 8,
		Train: train, Test: test,
		Margin: 2.6, NoiseStd: 0.62, SmoothPass: 1, LabelNoise: 0.03, Seed: seed,
	})
}

// CIFARLike returns the CIFAR-10 analog: 3-channel 8×8 colour mixture with
// heavier class overlap.
func CIFARLike(seed int64, train, test int) (*Dataset, error) {
	return GenerateSynthImage(SynthImageConfig{
		Name: "cifar-like", Classes: 10, C: 3, H: 8, W: 8,
		Train: train, Test: test,
		Margin: 2.5, NoiseStd: 0.65, SmoothPass: 2, LabelNoise: 0.05, Seed: seed,
	})
}

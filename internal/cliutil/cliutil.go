// Package cliutil is the flag-validation vocabulary shared by the
// command-line tools (cmd/flserver, cmd/flclient, cmd/campaign): range
// checks that reject out-of-range flag values up front with errors naming
// the offending flag, instead of passing them through to fail (or
// misbehave) deep inside the protocol. Every helper
// takes the flag's user-facing name ("-clients") and includes it verbatim
// in the error, so a failing invocation reads like the usage line that
// fixes it. Codec resolves the -codec flag that flserver and flclient
// share.
package cliutil

import (
	"fmt"
	"math"
	"time"

	"github.com/signguard/signguard/internal/codec"
)

// FiniteFloat requires v to be neither NaN nor ±Inf. flag.Float64 and
// strconv.ParseFloat happily parse "NaN" and "Inf", and a non-finite value
// poisons everything it touches downstream (campaign cell hashes, CSV
// exports, gradient math), so flags that feed numbers into the pipeline
// reject them at the door.
func FiniteFloat(flag string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("%s must be finite (got %v)", flag, v)
	}
	return nil
}

// PositiveInt requires v >= 1.
func PositiveInt(flag string, v int) error {
	if v < 1 {
		return fmt.Errorf("%s must be >= 1 (got %d)", flag, v)
	}
	return nil
}

// NonNegativeInt requires v >= 0.
func NonNegativeInt(flag string, v int) error {
	if v < 0 {
		return fmt.Errorf("%s must be >= 0 (got %d)", flag, v)
	}
	return nil
}

// IndexInRange requires v in [0, n) — a client id against a fleet size.
func IndexInRange(flag string, v, n int) error {
	if v < 0 || v >= n {
		return fmt.Errorf("%s %d out of [0, %d)", flag, v, n)
	}
	return nil
}

// PositiveFloat requires v > 0 and finite (NaN fails every comparison, so
// each float validator screens it explicitly).
func PositiveFloat(flag string, v float64) error {
	if err := FiniteFloat(flag, v); err != nil {
		return err
	}
	if v <= 0 {
		return fmt.Errorf("%s must be positive (got %v)", flag, v)
	}
	return nil
}

// NonNegativeFloat requires v >= 0 and finite.
func NonNegativeFloat(flag string, v float64) error {
	if err := FiniteFloat(flag, v); err != nil {
		return err
	}
	if v < 0 {
		return fmt.Errorf("%s must be >= 0 (got %v)", flag, v)
	}
	return nil
}

// Fraction requires v in [0, 1]. NaN is caught explicitly: it fails both
// range comparisons, so without the finite screen `-byz-fraction NaN`
// would validate.
func Fraction(flag string, v float64) error {
	if err := FiniteFloat(flag, v); err != nil {
		return err
	}
	if v < 0 || v > 1 {
		return fmt.Errorf("%s must be in [0, 1] (got %v)", flag, v)
	}
	return nil
}

// PositiveDuration requires d > 0.
func PositiveDuration(flag string, d time.Duration) error {
	if d <= 0 {
		return fmt.Errorf("%s must be positive (got %v)", flag, d)
	}
	return nil
}

// Codec resolves -codec to a wire codec (nil when no -codec is named:
// uncompressed).
func Codec(name string) (codec.Codec, error) {
	if name == "" {
		return nil, nil
	}
	c, err := codec.Builtin().Build(name, codec.Params{})
	if err != nil {
		return nil, fmt.Errorf("-codec: %w", err)
	}
	return c, nil
}

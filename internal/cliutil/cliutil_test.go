package cliutil

import (
	"math"
	"strings"
	"testing"
	"time"
)

// Every helper must name the offending flag in its error — the CLI tests
// historically asserted exactly that, and the contract lives here now.
func TestRangeChecksNameTheFlag(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
		flag string
	}{
		{"zero positive int", PositiveInt("-clients", 0), "-clients"},
		{"negative positive int", PositiveInt("-clients", -3), "-clients"},
		{"negative non-negative int", NonNegativeInt("-updates", -1), "-updates"},
		{"negative index", IndexInRange("-id", -1, 4), "-id"},
		{"index past range", IndexInRange("-id", 4, 4), "-id"},
		{"zero positive float", PositiveFloat("-lr", 0), "-lr"},
		{"negative positive float", PositiveFloat("-lr", -0.1), "-lr"},
		{"negative non-negative float", NonNegativeFloat("-alpha", -0.1), "-alpha"},
		{"fraction below", Fraction("-load-byz", -0.01), "-load-byz"},
		{"fraction above", Fraction("-load-byz", 1.01), "-load-byz"},
		{"zero duration", PositiveDuration("-round-timeout", 0), "-round-timeout"},
		{"negative duration", PositiveDuration("-round-timeout", -time.Second), "-round-timeout"},
		{"NaN finite float", FiniteFloat("-lr", math.NaN()), "-lr"},
		{"Inf finite float", FiniteFloat("-lr", math.Inf(1)), "-lr"},
		{"NaN positive float", PositiveFloat("-lr", math.NaN()), "-lr"},
		{"Inf positive float", PositiveFloat("-lr", math.Inf(1)), "-lr"},
		{"NaN non-negative float", NonNegativeFloat("-alpha", math.NaN()), "-alpha"},
		{"NaN fraction", Fraction("-load-byz", math.NaN()), "-load-byz"},
		{"Inf fraction", Fraction("-load-byz", math.Inf(-1)), "-load-byz"},
	} {
		if tc.err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(tc.err.Error(), tc.flag) {
			t.Errorf("%s: error %q does not name %s", tc.name, tc.err, tc.flag)
		}
	}
}

func TestRangeChecksAcceptMinima(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
	}{
		{"int minimum", PositiveInt("-clients", 1)},
		{"zero allowed", NonNegativeInt("-updates", 0)},
		{"index low edge", IndexInRange("-id", 0, 4)},
		{"index high edge", IndexInRange("-id", 3, 4)},
		{"small float", PositiveFloat("-lr", 0.001)},
		{"zero float allowed", NonNegativeFloat("-alpha", 0)},
		{"fraction edges low", Fraction("-load-byz", 0)},
		{"fraction edges high", Fraction("-load-byz", 1)},
		{"millisecond timeout", PositiveDuration("-round-timeout", time.Millisecond)},
	} {
		if tc.err != nil {
			t.Errorf("%s: valid value rejected: %v", tc.name, tc.err)
		}
	}
}

// TestCodec: -codec builds its codec, no -codec means uncompressed, and
// an unknown name names the flag.
func TestCodec(t *testing.T) {
	if c, err := Codec("topk"); err != nil || c == nil {
		t.Errorf("-codec topk: %v, %v", c, err)
	}
	if c, err := Codec(""); err != nil || c != nil {
		t.Errorf("no -codec: %v, %v, want uncompressed", c, err)
	}
	if _, err := Codec("gzip"); err == nil || !strings.Contains(err.Error(), "-codec") {
		t.Errorf("unknown codec: %v", err)
	}
}

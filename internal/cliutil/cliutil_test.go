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

func TestParseHyper(t *testing.T) {
	h, err := ParseHyper("-codec-hyper", "k=64")
	if err != nil || len(h) != 1 || h["k"] != 64 {
		t.Fatalf("ParseHyper(k=64) = %v, %v", h, err)
	}
	h, err = ParseHyper("-codec-hyper", "levels=4, seed=7.5")
	if err != nil || h["levels"] != 4 || h["seed"] != 7.5 {
		t.Fatalf("ParseHyper(two pairs) = %v, %v", h, err)
	}
	if h, err := ParseHyper("-codec-hyper", ""); err != nil || h != nil {
		t.Fatalf("empty string should parse to nil, got %v, %v", h, err)
	}
	// strconv.ParseFloat parses "NaN" and "Inf", so non-finite values must
	// be refused explicitly — they would poison campaign cell hashes and
	// CSV exports downstream.
	for _, bad := range []string{"k", "=4", "k=", "k=abc", "k=1,k=2",
		"k=NaN", "k=nan", "k=Inf", "k=-Inf", "k=+inf", "k=1,trim=NaN"} {
		if _, err := ParseHyper("-codec-hyper", bad); err == nil {
			t.Errorf("ParseHyper(%q) accepted", bad)
		} else if !strings.Contains(err.Error(), "-codec-hyper") {
			t.Errorf("ParseHyper(%q) error %q does not name the flag", bad, err)
		}
	}
}

func TestFormatHyperRoundTrip(t *testing.T) {
	in := map[string]float64{"levels": 4, "k": 64}
	s := FormatHyper(in)
	if s != "k=64,levels=4" {
		t.Fatalf("FormatHyper = %q, want sorted k=64,levels=4", s)
	}
	back, err := ParseHyper("-x", s)
	if err != nil || len(back) != 2 || back["k"] != 64 || back["levels"] != 4 {
		t.Fatalf("round trip = %v, %v", back, err)
	}
	if FormatHyper(nil) != "" {
		t.Error("FormatHyper(nil) not empty")
	}
}

// TestCodec: -codec builds its codec with -codec-hyper, no -codec means
// uncompressed, -codec-hyper needs -codec, and an unknown name names the
// flag.
func TestCodec(t *testing.T) {
	if c, err := Codec("topk", "k=4"); err != nil || c == nil {
		t.Errorf("-codec topk -codec-hyper k=4: %v, %v", c, err)
	}
	if c, err := Codec("", ""); err != nil || c != nil {
		t.Errorf("no -codec: %v, %v, want uncompressed", c, err)
	}
	if _, err := Codec("", "k=4"); err == nil || !strings.Contains(err.Error(), "requires -codec") {
		t.Errorf("-codec-hyper without -codec: %v", err)
	}
	if _, err := Codec("gzip", ""); err == nil || !strings.Contains(err.Error(), "-codec") {
		t.Errorf("unknown codec: %v", err)
	}
}

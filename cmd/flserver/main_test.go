package main

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/signguard/signguard/internal/asyncfl"
	"github.com/signguard/signguard/internal/asyncfl/loadtest"
	"github.com/signguard/signguard/internal/defense"
)

func TestValidateFlags(t *testing.T) {
	type flags struct {
		clients, rounds, byz int
		lr                   float64
		timeout              time.Duration
		buffer               int
		alpha                float64
		queueCap             int
		ttl                  time.Duration
	}
	validate := func(f flags) error {
		return validateFlags(f.clients, f.rounds, f.byz, f.lr, f.timeout, f.buffer, f.alpha, f.queueCap, f.ttl)
	}
	defaults := flags{4, 100, 0, 0.05, 30 * time.Second, 8, 0.5, asyncfl.DefaultQueueCap, asyncfl.DefaultSessionTTL}
	for _, f := range []flags{
		defaults,
		{1, 1, 0, 0.001, time.Millisecond, 1, 0, 1, time.Millisecond}, // minima are all legal
	} {
		if err := validate(f); err != nil {
			t.Errorf("valid flags %+v rejected: %v", f, err)
		}
	}

	for _, tc := range []struct {
		name string
		edit func(*flags)
		flag string
	}{
		{"zero clients", func(f *flags) { f.clients = 0 }, "-clients"},
		{"negative clients", func(f *flags) { f.clients = -3 }, "-clients"},
		{"zero rounds", func(f *flags) { f.rounds = 0 }, "-rounds"},
		{"negative byz", func(f *flags) { f.byz = -1 }, "-byz"},
		{"zero lr", func(f *flags) { f.lr = 0 }, "-lr"},
		{"negative lr", func(f *flags) { f.lr = -0.1 }, "-lr"},
		{"zero timeout", func(f *flags) { f.timeout = 0 }, "-round-timeout"},
		{"negative timeout", func(f *flags) { f.timeout = -time.Second }, "-round-timeout"},
		{"zero buffer", func(f *flags) { f.buffer = 0 }, "-buffer"},
		{"negative alpha", func(f *flags) { f.alpha = -0.1 }, "-alpha"},
		{"NaN lr", func(f *flags) { f.lr = math.NaN() }, "-lr"},
		{"NaN alpha", func(f *flags) { f.alpha = math.NaN() }, "-alpha"},
		{"zero queue cap", func(f *flags) { f.queueCap = 0 }, "-queue-cap"},
		{"negative queue cap", func(f *flags) { f.queueCap = -1 }, "-queue-cap"},
		{"zero session ttl", func(f *flags) { f.ttl = 0 }, "-session-ttl"},
		{"negative session ttl", func(f *flags) { f.ttl = -time.Second }, "-session-ttl"},
	} {
		f := defaults
		tc.edit(&f)
		if err := validate(f); err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.flag)
		}
	}
}

// TestParseAccepted: -codec is the accepted list in either serving mode
// (sync and async share one wire).
func TestParseAccepted(t *testing.T) {
	if got, err := parseAccepted("identity, topk"); err != nil || strings.Join(got, ",") != "identity,topk" {
		t.Errorf("accepted list: %v, %v", got, err)
	}
	if got, err := parseAccepted(""); err != nil || got != nil {
		t.Errorf("empty -codec: %v, %v, want every built-in", got, err)
	}
	if _, err := parseAccepted("topk,"); err == nil {
		t.Error("empty name in the list accepted")
	}
}

// TestValidateLoadFlags: every -load-* flag is range-checked up front and
// its error names it.
func TestValidateLoadFlags(t *testing.T) {
	defaults := loadtest.Config{Clients: 10000, UpdatesPerClient: 2, Concurrency: 256, Dim: 64}
	if err := validateLoadFlags(defaults); err != nil {
		t.Errorf("defaults rejected: %v", err)
	}
	for flag, edit := range map[string]func(*loadtest.Config){
		"-load-clients":     func(c *loadtest.Config) { c.Clients = 0 },
		"-load-updates":     func(c *loadtest.Config) { c.UpdatesPerClient = 0 },
		"-load-concurrency": func(c *loadtest.Config) { c.Concurrency = -1 },
		"-load-dim":         func(c *loadtest.Config) { c.Dim = -1 },
		"-load-byz":         func(c *loadtest.Config) { c.ByzFraction = 1.5 },
		"-load-churn":       func(c *loadtest.Config) { c.ChurnFraction = -0.1 },
		"-load-nonfinite":   func(c *loadtest.Config) { c.NonFiniteFraction = math.NaN() },
	} {
		cfg := defaults
		edit(&cfg)
		if err := validateLoadFlags(cfg); err == nil || !strings.Contains(err.Error(), flag) {
			t.Errorf("%s out of range: error %v, want one naming the flag", flag, err)
		}
	}
}

// TestBuildRule: -rule takes every catalog name and builds it into an
// aggregator, except FLTrust, which asyncfl refuses (no server reference
// gradient) and the -rule usage therefore leaves out. A lowercase spelling
// is refused with the catalog's hint; krum matches no catalog name, so
// nothing is suggested for it.
func TestBuildRule(t *testing.T) {
	usage := servableRules()
	if slices.Contains(usage, "FLTrust") {
		t.Errorf("-rule usage lists FLTrust: %v", usage)
	}
	for _, name := range defense.Builtin().Names() {
		rule, err := buildRule(name, 8, 1, 1)
		if err != nil {
			t.Errorf("buildRule(%q): %v", name, err)
			continue
		}
		_, err = asyncfl.New(asyncfl.Config{InitialParams: make([]float64, 4), K: 8, LR: 0.05, Rule: rule})
		if (err != nil) != (name == "FLTrust") {
			t.Errorf("asyncfl.New with -rule %s: %v", name, err)
		}
		if listed := slices.Contains(usage, name); listed != (err == nil) {
			t.Errorf("-rule %s: listed in the usage %v, serves %v", name, listed, err == nil)
		}
	}
	for old, hint := range map[string]string{
		"signguard": `did you mean "SignGuard"`,
		"multikrum": `did you mean "Multi-Krum"`,
		"krum":      "",
	} {
		_, err := buildRule(old, 8, 1, 1)
		switch {
		case err == nil:
			t.Errorf("old spelling %q accepted", old)
		case hint == "" && strings.Contains(err.Error(), "did you mean"):
			t.Errorf("-rule %s: %v, want no suggestion", old, err)
		case !strings.Contains(err.Error(), hint):
			t.Errorf("-rule %s: %v, want %s", old, err, hint)
		}
	}
}

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
	"github.com/signguard/signguard/internal/sanitize"
)

func TestValidateFlags(t *testing.T) {
	ok := func(clients, rounds, byz int, lr float64, timeout time.Duration, buffer int, alpha float64) {
		t.Helper()
		if err := validateFlags(clients, rounds, byz, lr, timeout, buffer, alpha); err != nil {
			t.Errorf("valid flags rejected: %v", err)
		}
	}
	ok(4, 100, 0, 0.05, 30*time.Second, 8, 0.5)
	ok(1, 1, 0, 0.001, time.Millisecond, 1, 0) // minima are all legal

	for _, tc := range []struct {
		name    string
		clients int
		rounds  int
		byz     int
		lr      float64
		timeout time.Duration
		buffer  int
		alpha   float64
		flag    string
	}{
		{"zero clients", 0, 100, 0, 0.05, time.Second, 8, 0.5, "-clients"},
		{"negative clients", -3, 100, 0, 0.05, time.Second, 8, 0.5, "-clients"},
		{"zero rounds", 4, 0, 0, 0.05, time.Second, 8, 0.5, "-rounds"},
		{"negative byz", 4, 100, -1, 0.05, time.Second, 8, 0.5, "-byz"},
		{"zero lr", 4, 100, 0, 0, time.Second, 8, 0.5, "-lr"},
		{"negative lr", 4, 100, 0, -0.1, time.Second, 8, 0.5, "-lr"},
		{"zero timeout", 4, 100, 0, 0.05, 0, 8, 0.5, "-round-timeout"},
		{"negative timeout", 4, 100, 0, 0.05, -time.Second, 8, 0.5, "-round-timeout"},
		{"zero buffer", 4, 100, 0, 0.05, time.Second, 0, 0.5, "-buffer"},
		{"negative alpha", 4, 100, 0, 0.05, time.Second, 8, -0.1, "-alpha"},
		{"NaN lr", 4, 100, 0, math.NaN(), time.Second, 8, 0.5, "-lr"},
		{"NaN alpha", 4, 100, 0, 0.05, time.Second, 8, math.NaN(), "-alpha"},
	} {
		err := validateFlags(tc.clients, tc.rounds, tc.byz, tc.lr, tc.timeout, tc.buffer, tc.alpha)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.flag)
		}
	}
}

// The -nonfinite-policy flag follows the cliutil error contract: every
// canonical spelling parses, anything else fails naming the flag.
func TestNonFinitePolicyFlag(t *testing.T) {
	for _, name := range sanitize.PolicyNames() {
		if _, err := sanitize.ParsePolicy("-nonfinite-policy", name); err != nil {
			t.Errorf("ParsePolicy(%q): %v", name, err)
		}
	}
	_, err := sanitize.ParsePolicy("-nonfinite-policy", "ignore")
	if err == nil {
		t.Fatal("unknown policy accepted")
	}
	if !strings.Contains(err.Error(), "-nonfinite-policy") {
		t.Errorf("error %q does not name the flag", err)
	}
}

// TestParseAccepted: -codec is the accepted list in either serving mode
// (sync and async share one wire); -codec-hyper has no serving meaning.
func TestParseAccepted(t *testing.T) {
	if got, err := parseAccepted("identity, topk", ""); err != nil || strings.Join(got, ",") != "identity,topk" {
		t.Errorf("accepted list: %v, %v", got, err)
	}
	if got, err := parseAccepted("", ""); err != nil || got != nil {
		t.Errorf("empty -codec: %v, %v, want every built-in", got, err)
	}
	if _, err := parseAccepted("topk,", ""); err == nil {
		t.Error("empty name in the list accepted")
	}
	if _, err := parseAccepted("topk", "k=8"); err == nil {
		t.Error("-codec-hyper accepted outside -loadtest")
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

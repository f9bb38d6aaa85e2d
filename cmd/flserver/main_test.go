package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"github.com/signguard/signguard/internal/sanitize"
)

func TestValidateFlags(t *testing.T) {
	ok := func(clients, rounds int, lr float64, timeout time.Duration, buffer int, alpha float64) {
		t.Helper()
		if err := validateFlags(clients, rounds, lr, timeout, buffer, alpha); err != nil {
			t.Errorf("valid flags rejected: %v", err)
		}
	}
	ok(4, 100, 0.05, 30*time.Second, 8, 0.5)
	ok(1, 1, 0.001, time.Millisecond, 1, 0) // minima are all legal

	for _, tc := range []struct {
		name    string
		clients int
		rounds  int
		lr      float64
		timeout time.Duration
		buffer  int
		alpha   float64
		flag    string
	}{
		{"zero clients", 0, 100, 0.05, time.Second, 8, 0.5, "-clients"},
		{"negative clients", -3, 100, 0.05, time.Second, 8, 0.5, "-clients"},
		{"zero rounds", 4, 0, 0.05, time.Second, 8, 0.5, "-rounds"},
		{"zero lr", 4, 100, 0, time.Second, 8, 0.5, "-lr"},
		{"negative lr", 4, 100, -0.1, time.Second, 8, 0.5, "-lr"},
		{"zero timeout", 4, 100, 0.05, 0, 8, 0.5, "-round-timeout"},
		{"negative timeout", 4, 100, 0.05, -time.Second, 8, 0.5, "-round-timeout"},
		{"zero buffer", 4, 100, 0.05, time.Second, 0, 0.5, "-buffer"},
		{"negative alpha", 4, 100, 0.05, time.Second, 8, -0.1, "-alpha"},
		{"NaN lr", 4, 100, math.NaN(), time.Second, 8, 0.5, "-lr"},
		{"NaN alpha", 4, 100, 0.05, time.Second, 8, math.NaN(), "-alpha"},
	} {
		err := validateFlags(tc.clients, tc.rounds, tc.lr, tc.timeout, tc.buffer, tc.alpha)
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

func TestBuildRuleRejectsUnknown(t *testing.T) {
	if _, err := buildRule("no-such-rule", 8, 0, 1); err == nil {
		t.Error("unknown rule name accepted")
	}
	for _, name := range []string{"mean", "trmean", "median", "geomed", "krum", "multikrum", "bulyan", "dnc", "signguard"} {
		if _, err := buildRule(name, 8, 1, 1); err != nil {
			t.Errorf("buildRule(%q): %v", name, err)
		}
	}
}

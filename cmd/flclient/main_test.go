package main

import (
	"os"
	"strings"
	"testing"

	"github.com/signguard/signguard/internal/attack"
)

func TestValidateFlags(t *testing.T) {
	if err := validateFlags(0, 4, 16, 0); err != nil {
		t.Errorf("valid flags rejected: %v", err)
	}
	if err := validateFlags(2, 3, 1, 500); err != nil {
		t.Errorf("valid flags rejected: %v", err)
	}

	for _, tc := range []struct {
		name                       string
		id, clients, batch, update int
		flag                       string
	}{
		{"zero clients", 0, 0, 16, 0, "-clients"},
		{"negative clients", 0, -1, 16, 0, "-clients"},
		{"negative id", -1, 4, 16, 0, "-id"},
		{"id past range", 4, 4, 16, 0, "-id"},
		{"zero batch", 0, 4, 0, 0, "-batch"},
		{"negative updates", 0, 4, 16, -1, "-updates"},
	} {
		err := validateFlags(tc.id, tc.clients, tc.batch, tc.update)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.flag)
		}
	}
}

// TestByzModesMatchAttackCatalog pins every -byzantine mode to a real
// internal/attack catalog entry and enforces the network setting's
// constraint: a client renders its attack locally, with no view of the
// cohort and no filtering-feedback channel, so no mode may map to an
// adaptive attack.
func TestByzModesMatchAttackCatalog(t *testing.T) {
	for mode, name := range localByzModes {
		spec, err := attack.Builtin().Lookup(name)
		if err != nil {
			t.Errorf("mode %q: %v", mode, err)
			continue
		}
		if spec.Adaptive {
			t.Errorf("mode %q maps to adaptive attack %s — a networked client has no filtering feedback to adapt on", mode, name)
		}
	}
	if err := validateByzMode("definitely-not-a-mode"); err == nil {
		t.Error("unknown mode passed validation")
	}
	if err := validateByzMode(""); err != nil {
		t.Errorf("honest mode rejected: %v", err)
	}
}

// TestByzModesAppearInCLISurface greps this command's own source for each
// mode token: every mode must appear in both the -byzantine usage string
// and the compute switch, so the CLI surface cannot drift from the map the
// catalog test pins.
func TestByzModesAppearInCLISurface(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	text := string(src)
	for mode := range localByzModes {
		if strings.Count(text, mode) < 2 {
			t.Errorf("mode %q appears fewer than twice in main.go — usage string and compute switch must both carry it", mode)
		}
	}
}

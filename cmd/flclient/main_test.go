package main

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/signguard/signguard/internal/attack"
	"github.com/signguard/signguard/internal/data"
	"github.com/signguard/signguard/internal/tensor"
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
// adaptive attack. Old spellings get the catalog's hint; catalog attacks
// that need the cohort are refused.
func TestByzModesMatchAttackCatalog(t *testing.T) {
	for mode := range localByzModes {
		spec, err := attack.Builtin().Lookup(mode)
		if err != nil {
			t.Errorf("mode %q: %v", mode, err)
			continue
		}
		att, err := spec.New(0, 1)
		if err != nil {
			t.Errorf("mode %q: %v", mode, err)
			continue
		}
		if attack.Promote(att).NeedsHistory() {
			t.Errorf("mode %q is adaptive — a networked client has no filtering feedback to adapt on", mode)
		}
	}
	if b, err := newByzantine("", 1, 0); b.attack != nil || err != nil {
		t.Errorf("honest mode: %v, %v", b, err)
	}
	for mode, want := range map[string]string{
		"signflip":              `did you mean "Sign-flip"`,
		"LIE":                   "not one of the local modes",
		"definitely-not-a-mode": "unknown attack",
	} {
		if _, err := newByzantine(mode, 1, 0); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("-byzantine %s: %v, want an error containing %s", mode, err, want)
		}
	}
}

// TestByzantineMatchesParentFormulas: each mode, built from the catalog,
// submits bit for bit its formula: −g, −100·g, N(0, 0.5²) noise from the
// client's seed+500+id stream (which persists across rounds), and honest
// gradients on label-flipped data.
func TestByzantineMatchesParentFormulas(t *testing.T) {
	const seed, id = 7, 3
	g := tensor.RandNormal(tensor.NewRNG(1), 50, 0, 1)
	craft := func(mode string, rounds int) [][]float64 {
		t.Helper()
		b, err := newByzantine(mode, seed, id)
		if err != nil {
			t.Fatal(err)
		}
		var out [][]float64
		for range rounds {
			c, err := b.craft(tensor.Clone(g))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, c)
		}
		return out
	}
	noise := tensor.NewRNG(seed + 500 + id)
	for mode, want := range map[string][][]float64{
		"Sign-flip":  {tensor.Scale(g, -1)},
		"Reverse":    {tensor.Scale(g, -100)},
		"Random":     {tensor.RandNormal(noise, len(g), 0, 0.5), tensor.RandNormal(noise, len(g), 0, 0.5)},
		"Label-flip": {g},
	} {
		for r, got := range craft(mode, len(want)) {
			if !slices.EqualFunc(got, want[r], func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
				t.Errorf("%s round %d: submission differs from the formula", mode, r)
			}
		}
	}

	// Only Label-flip poisons the local data, and exactly as FlipLabels.
	for _, mode := range []string{"", "Sign-flip", "Reverse", "Random", "Label-flip"} {
		b, err := newByzantine(mode, seed, id)
		if err != nil {
			t.Fatal(err)
		}
		p, ok := b.attack.(attack.DataPoisoner)
		if ok != (mode == "Label-flip") {
			t.Errorf("%q: data poisoner %v", mode, ok)
		}
		if !ok {
			continue
		}
		xs := []data.Example{{Features: []float64{1}, Label: 0}, {Features: []float64{2}, Label: 7}}
		got, err := p.PoisonData(xs, 10)
		want, _ := data.FlipLabels(xs, 10)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s poisons %v into %v, %v; want %v", mode, xs, got, err, want)
		}
	}
}

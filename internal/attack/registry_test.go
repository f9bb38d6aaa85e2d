package attack

import (
	"slices"
	"testing"
)

// TestBuiltinNamesOrder pins the catalog's names and order: the tables'
// column order, and a guard against an entry silently going missing.
func TestBuiltinNamesOrder(t *testing.T) {
	want := []string{
		"NoAttack", "Random", "Noise", "Label-flip", "ByzMean", "Sign-flip",
		"LIE", "Min-Max", "Min-Sum", "Reverse", "TimeVarying", "Adaptive-Min-Max",
		"SignKeep", "NonFinite-NaN", "Backdoor",
	}
	if got := Builtin().Names(); !slices.Equal(got, want) {
		t.Errorf("Names() = %v, want %v", got, want)
	}
}

// TestBuiltinCatalogContract checks that every catalog entry's constructor
// builds a named attack with defaults, twice. (Callers provision history
// recording and data poisoning off the built instance: NeedsHistory() and
// the DataPoisoner interface.)
func TestBuiltinCatalogContract(t *testing.T) {
	for _, spec := range Builtin().Values() {
		t.Run(spec.Name, func(t *testing.T) {
			att, err := spec.New(0, 1)
			if err != nil {
				t.Fatalf("default construction: %v", err)
			}
			if att.Name() == "" {
				t.Error("built attack has an empty Name()")
			}
			if _, err := spec.New(0, 1); err != nil {
				t.Errorf("second construction: %v", err)
			}
		})
	}
}

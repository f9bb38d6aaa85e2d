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

// TestBuiltinCatalogContract checks every catalog entry against the
// capabilities it declares: the constructor builds with defaults, Adaptive
// matches the instance's history appetite, and Poisons matches whether it
// implements DataPoisoner. Callers provision history recording and data
// poisoning off these flags, so a mismatch means an attack silently runs
// without the machinery it needs.
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
			if got := Promote(att).NeedsHistory(); got != spec.Adaptive {
				t.Errorf("NeedsHistory() = %v, catalog declares Adaptive=%v", got, spec.Adaptive)
			}
			if _, got := att.(DataPoisoner); got != spec.Poisons {
				t.Errorf("implements DataPoisoner = %v, catalog declares Poisons=%v", got, spec.Poisons)
			}
			if _, err := spec.New(0, 1); err != nil {
				t.Errorf("second construction: %v", err)
			}
		})
	}
}

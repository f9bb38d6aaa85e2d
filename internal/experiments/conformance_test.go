package experiments

import (
	"testing"

	"github.com/signguard/signguard/internal/conformance"
)

// TestCatalogConformance extends the registry-wide defense contract from
// internal/defense to the experiment harness's full catalog — the builtin
// rules plus the Table III ablation variants — so an ablation cannot ship
// with worker-dependent or non-finite behavior the builtin suite would have
// caught in its parent.
func TestCatalogConformance(t *testing.T) {
	reg := Defenses()
	for _, name := range reg.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			if err := conformance.CheckDefenseWorkerDeterminism(reg, name, 11); err != nil {
				t.Errorf("worker determinism: %v", err)
			}
			if err := conformance.CheckDefenseHostileInputs(reg, name, 13); err != nil {
				t.Errorf("hostile inputs: %v", err)
			}
			if err := conformance.CheckDefenseInputRetention(reg, name, 23); err != nil {
				t.Errorf("input retention: %v", err)
			}
		})
	}
}

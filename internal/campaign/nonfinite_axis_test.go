package campaign_test

import (
	"strings"
	"testing"

	"github.com/signguard/signguard/internal/attack"
	"github.com/signguard/signguard/internal/campaign"
	"github.com/signguard/signguard/internal/sanitize"
)

// TestNonFiniteAxisKeepsHistoricalHashes pins the cache-compatibility
// contract of the hostile-input axis: a cell without a policy hashes
// exactly as before the field existed, and a stamped policy IS identity.
func TestNonFiniteAxisKeepsHistoricalHashes(t *testing.T) {
	base := campaign.NewCell("tiny", "Mean", "LIE", tinyParams(1))
	k1, err := base.Key()
	if err != nil {
		t.Fatal(err)
	}
	zero := base
	zero.NonFinitePolicy = ""
	k2, err := zero.Key()
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatal("zero-valued NonFinitePolicy changed the cell hash")
	}
	reject := base
	reject.NonFinitePolicy = sanitize.Reject.String()
	kr, err := reject.Key()
	if err != nil {
		t.Fatal(err)
	}
	if kr == k1 {
		t.Fatal("NonFinitePolicy not part of the cell identity")
	}
}

func TestNonFiniteAxisID(t *testing.T) {
	c := campaign.NewCell("tiny", "Mean", "LIE", tinyParams(1))
	if strings.Contains(c.ID(), "nonfinite") {
		t.Errorf("policy-free cell ID %q mentions nonfinite", c.ID())
	}
	c.NonFinitePolicy = "reject"
	if !strings.Contains(c.ID(), "nonfinite=reject") {
		t.Errorf("cell ID %q does not render the non-finite axis", c.ID())
	}
}

// TestValidateRejectsBadNonFinitePolicy: "" and "reject" are the only
// policies; the removed repair policies fail validation like any typo.
func TestValidateRejectsBadNonFinitePolicy(t *testing.T) {
	for _, name := range []string{"ignore", "clamp", "quarantine"} {
		t.Run(name, func(t *testing.T) {
			bad := campaign.NewCell("tiny", "Mean", "LIE", tinyParams(1))
			bad.NonFinitePolicy = name
			if err := testRegistry().Validate(campaign.Spec{Name: "x", Cells: []campaign.Cell{bad}}); err == nil ||
				!strings.Contains(err.Error(), name) {
				t.Errorf("passed validation: %v", err)
			}
		})
	}
}

// TestNonFiniteCellsThroughEngine runs the hostile-input axis end to end:
// under the legacy zero policy a NaN-injection attack diverges the run (the
// historical semantics), under the reject policy the same cell screens the
// hostile submissions and completes.
func TestNonFiniteCellsThroughEngine(t *testing.T) {
	reg := testRegistry()
	reg.RegisterAttack("NonFinite-NaN", func(_ campaign.Cell, _ int64) (attack.Attack, error) {
		return attack.NewNonFinite(attack.NaNValue), nil
	})
	legacy := campaign.NewCell("tiny", "Mean", "NonFinite-NaN", tinyParams(1))
	screened := legacy
	screened.NonFinitePolicy = sanitize.Reject.String()
	spec := campaign.Spec{Name: "hostile", Cells: []campaign.Cell{legacy, screened}}

	e := &campaign.Engine{Registry: reg, Workers: 2}
	rep := mustRun(t, e, spec)
	if !rep.Results[0].Diverged {
		t.Error("legacy policy did not diverge under NaN injection")
	}
	if rep.Results[1].Diverged {
		t.Error("reject policy diverged: hostile submissions were not screened")
	}
	if rep.Results[1].NonFiniteScreened == 0 {
		t.Error("reject policy screened nothing under a NaN-injection attack")
	}
}

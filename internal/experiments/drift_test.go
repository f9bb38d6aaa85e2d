package experiments

import (
	"testing"

	"github.com/signguard/signguard/internal/attack"
	"github.com/signguard/signguard/internal/campaign"
)

// TestCampaignRegistryCoversCatalog proves every catalog attack is runnable
// through the campaign registry: one cell per catalog name must validate.
// The registry holds attack.Builtin() itself; a narrower attack table in
// its place (the SignKeep gap this test originally caught) fails here.
func TestCampaignRegistryCoversCatalog(t *testing.T) {
	p := axesParams()
	spec := campaign.Spec{Name: "coverage"}
	for _, name := range attack.Builtin().Names() {
		spec.Cells = append(spec.Cells, campaign.NewCell("mnist", "Mean", name, p))
	}
	if err := Registry().Validate(spec); err != nil {
		t.Fatal(err)
	}
}

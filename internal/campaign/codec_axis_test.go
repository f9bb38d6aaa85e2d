package campaign_test

import (
	"strings"
	"testing"

	"github.com/signguard/signguard/internal/campaign"
)

// TestCodecAxisKeepsHistoricalHashes pins the cache-compatibility contract
// of the compression axis: a cell that does not use it hashes exactly as
// before the fields existed, and the documented-equivalent spellings "" and
// "identity" share one identity.
func TestCodecAxisKeepsHistoricalHashes(t *testing.T) {
	base := campaign.NewCell("tiny", "Mean", "LIE", tinyParams(1))
	k1, err := base.Key()
	if err != nil {
		t.Fatal(err)
	}
	zero := base
	zero.Codec = ""
	zero.CodecHyper = nil
	k2, err := zero.Key()
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatal("zero-valued codec fields changed the cell hash")
	}
	// The identity codec round trip is byte-identical to no codec at all,
	// so the explicit spelling must share the cache entry.
	ident := base
	ident.Codec = campaign.CodecIdentity
	kIdent, err := ident.Key()
	if err != nil {
		t.Fatal(err)
	}
	if kIdent != k1 {
		t.Fatal(`Codec "identity" hashes differently from ""`)
	}
	// Lossy codecs and their hyperparameters ARE identity.
	topk := base
	topk.Codec = "topk"
	kTopk, _ := topk.Key()
	topkK := topk
	topkK.CodecHyper = map[string]float64{"k": 16}
	kTopkK, _ := topkK.Key()
	if kTopk == k1 || kTopkK == k1 || kTopk == kTopkK {
		t.Fatal("codec fields not part of the cell identity")
	}
}

func TestCodecAxisID(t *testing.T) {
	c := campaign.NewCell("tiny", "Mean", "LIE", tinyParams(1))
	if strings.Contains(c.ID(), "codec") {
		t.Errorf("codec-free cell ID %q mentions a codec", c.ID())
	}
	c.Codec = "topk"
	c.CodecHyper = map[string]float64{"k": 16}
	if !strings.Contains(c.ID(), "codec=topk:k:16") {
		t.Errorf("cell ID %q does not render the codec axis", c.ID())
	}
	// Identity is the default spelling: not rendered, matching Key.
	c = campaign.NewCell("tiny", "Mean", "LIE", tinyParams(1))
	c.Codec = campaign.CodecIdentity
	if strings.Contains(c.ID(), "codec") {
		t.Errorf("identity-codec cell ID %q renders the default", c.ID())
	}
}

// TestCodecCellsThroughEngine runs the compression axis end to end: the
// codec changes results and bytes shipped, and execution stays
// deterministic across engine worker counts.
func TestCodecCellsThroughEngine(t *testing.T) {
	spec := campaign.Spec{Name: "codecs"}
	for _, cdc := range []string{"identity", "topk", "signsgd"} {
		c := campaign.NewCell("tiny", "SignGuard", "LIE", tinyParams(1))
		c.Codec = cdc
		if cdc == "topk" {
			c.CodecHyper = map[string]float64{"k": 20}
		}
		spec.Cells = append(spec.Cells, c)
	}
	e := &campaign.Engine{Registry: testRegistry(), Workers: 2}
	rep := mustRun(t, e, spec)
	h := resultHashes(t, rep)
	if h[0] == h[1] || h[0] == h[2] || h[1] == h[2] {
		t.Error("codec axis had no effect on results")
	}
	for i, r := range rep.Results {
		if r.WireBytes <= 0 {
			t.Errorf("cell %d (%s): no wire-bytes accounting", i, r.Cell.ID())
		}
	}
	ident, topk, sign := rep.Results[0], rep.Results[1], rep.Results[2]
	if topk.WireBytes >= ident.WireBytes {
		t.Errorf("topk shipped %d bytes, identity %d", topk.WireBytes, ident.WireBytes)
	}
	if sign.WireBytes >= topk.WireBytes {
		t.Errorf("signsgd shipped %d bytes, topk %d", sign.WireBytes, topk.WireBytes)
	}

	// Determinism across engine worker counts (and so the simulation worker
	// counts derived from them): the lossy codecs draw only from the codec
	// stage's own sequential RNG stream.
	for _, workers := range []int{1, 4} {
		rep2 := mustRun(t, &campaign.Engine{Registry: testRegistry(), Workers: workers}, spec)
		h2 := resultHashes(t, rep2)
		for i := range h {
			if h[i] != h2[i] {
				t.Fatalf("workers=%d: codec cell %d not deterministic", workers, i)
			}
		}
	}
}

func TestValidateRejectsBadCodec(t *testing.T) {
	reg := testRegistry()
	p := tinyParams(1)

	bad := campaign.NewCell("tiny", "Mean", "LIE", p)
	bad.Codec = "gzip"
	if err := reg.Validate(campaign.Spec{Name: "x", Cells: []campaign.Cell{bad}}); err == nil ||
		!strings.Contains(err.Error(), "gzip") {
		t.Errorf("unknown codec passed validation: %v", err)
	}

	badHyper := campaign.NewCell("tiny", "Mean", "LIE", p)
	badHyper.Codec = "topk"
	badHyper.CodecHyper = map[string]float64{"levels": 4}
	if err := reg.Validate(campaign.Spec{Name: "x", Cells: []campaign.Cell{badHyper}}); err == nil ||
		!strings.Contains(err.Error(), "levels") {
		t.Errorf("undeclared codec hyperparameter passed validation: %v", err)
	}

	stray := campaign.NewCell("tiny", "Mean", "LIE", p)
	stray.CodecHyper = map[string]float64{"k": 8} // without a codec name
	if err := reg.Validate(campaign.Spec{Name: "x", Cells: []campaign.Cell{stray}}); err == nil {
		t.Error("CodecHyper without a Codec passed validation")
	}
}

// TestApplyCodec: the grid-wide stamping helper behind the -codec flags.
func TestApplyCodec(t *testing.T) {
	spec := testSpec()
	stamped := campaign.ApplyCodec(spec, "qsgd", map[string]float64{"levels": 8})
	if len(stamped.Cells) != len(spec.Cells) {
		t.Fatalf("stamped %d cells, want %d", len(stamped.Cells), len(spec.Cells))
	}
	for i, c := range stamped.Cells {
		if c.Codec != "qsgd" || c.CodecHyper["levels"] != 8 {
			t.Fatalf("cell %d not stamped: %+v", i, c)
		}
		if spec.Cells[i].Codec != "" {
			t.Fatal("ApplyCodec mutated the input spec")
		}
	}
	// Each cell owns its hyper map: mutating one cell's (or the caller's
	// original map) must not leak into any other cell.
	hyper := map[string]float64{"levels": 8}
	stamped = campaign.ApplyCodec(spec, "qsgd", hyper)
	hyper["levels"] = 99
	stamped.Cells[0].CodecHyper["levels"] = 4
	if got := stamped.Cells[1].CodecHyper["levels"]; got != 8 {
		t.Fatalf("cell 1 hyper = %v, shared map leaked across cells/caller", got)
	}

	same := campaign.ApplyCodec(spec, "", nil)
	for i := range same.Cells {
		if same.Cells[i].Codec != "" {
			t.Fatalf("empty name stamped cell %d", i)
		}
	}
}

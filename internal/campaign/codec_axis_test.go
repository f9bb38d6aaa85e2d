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
	k2, err := zero.Key()
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatal("zero-valued codec field changed the cell hash")
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
	// A lossy codec IS identity.
	topk := base
	topk.Codec = "topk"
	if kTopk, _ := topk.Key(); kTopk == k1 {
		t.Fatal("codec not part of the cell identity")
	}
}

func TestCodecAxisID(t *testing.T) {
	c := campaign.NewCell("tiny", "Mean", "LIE", tinyParams(1))
	if strings.Contains(c.ID(), "codec") {
		t.Errorf("codec-free cell ID %q mentions a codec", c.ID())
	}
	c.Codec = "topk"
	if !strings.Contains(c.ID(), "/codec=topk/") {
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
}

// TestApplyCodec: the grid-wide stamping helper behind the -codec flag.
func TestApplyCodec(t *testing.T) {
	spec := testSpec()
	stamped := campaign.ApplyCodec(spec, "qsgd")
	if len(stamped.Cells) != len(spec.Cells) {
		t.Fatalf("stamped %d cells, want %d", len(stamped.Cells), len(spec.Cells))
	}
	for i, c := range stamped.Cells {
		if c.Codec != "qsgd" {
			t.Fatalf("cell %d not stamped: %+v", i, c)
		}
		if spec.Cells[i].Codec != "" {
			t.Fatal("ApplyCodec mutated the input spec")
		}
	}

	same := campaign.ApplyCodec(spec, "")
	for i := range same.Cells {
		if same.Cells[i].Codec != "" {
			t.Fatalf("empty name stamped cell %d", i)
		}
	}
}

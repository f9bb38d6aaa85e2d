package experiments

import (
	"fmt"

	"github.com/signguard/signguard/internal/campaign"
	"github.com/signguard/signguard/internal/codec"
)

// This file declares the gradient-compression campaign: the codec axis of
// the round pipeline (internal/codec) swept against the defense catalog.
// The question it answers is the deployment trade-off the paper leaves
// open — how much wire traffic a codec saves, and whether the robust
// aggregation rules still separate honest from malicious gradients once
// every submission has been through a lossy round trip.

// compressionCodecs are the swept wire formats, each at its one registry
// configuration (topk keeps dim/10 coordinates, qsgd quantizes to ±4
// levels).
var compressionCodecs = []string{
	codec.Identity, codec.TopK, codec.QSGD, codec.SignSGD,
}

// compressionRules are the compared defenses: the paper's SignGuard, two
// strong baselines, and the undefended mean.
var compressionRules = []string{"SignGuard", "Multi-Krum", "DnC", "Mean"}

// compressionAttacks are the adversaries each (defense, codec) pair faces.
var compressionAttacks = []string{"LIE", "Sign-flip"}

// compressionSpec declares the codec sweep: defense × attack × codec on
// the MNIST analog. The codec is cell identity, so each wire format
// caches separately and the grid's exports carry per-cell bytes shipped.
func compressionSpec(p Params) campaign.Spec {
	spec := campaign.Spec{Name: "compression"}
	for _, rule := range compressionRules {
		for _, att := range compressionAttacks {
			for _, cdc := range compressionCodecs {
				c := campaign.NewCell("mnist", rule, att, p)
				c.Codec = cdc
				spec.Cells = append(spec.Cells, c)
			}
		}
	}
	return spec
}

// renderCompression renders the codec sweep's best accuracy plus total
// bytes shipped per defense × attack × codec.
func renderCompression(results []*campaign.CellResult) ([]*Table, error) {
	t := &Table{Title: "Gradient compression — best test accuracy % (bytes shipped)"}
	t.Header = []string{"Defense", "Attack"}
	t.Header = append(t.Header, compressionCodecs...)
	cur := cursor{results: results}
	for _, rule := range compressionRules {
		for _, att := range compressionAttacks {
			row := []string{rule, att}
			for range compressionCodecs {
				r := cur.next()
				row = append(row, fmt.Sprintf("%s (%s)", fmtAcc(r.BestAccuracy), fmtBytes(r.WireBytes)))
			}
			t.AddRow(row...)
		}
	}
	return cur.tables(t)
}

// fmtBytes renders a byte count at a human scale (KiB/MiB/GiB).
func fmtBytes(n int64) string {
	const unit = 1024
	if n < unit {
		return fmt.Sprintf("%d B", n)
	}
	div, exp := int64(unit), 0
	for m := n / unit; m >= unit && exp < 2; m /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f %ciB", float64(n)/float64(div), "KMG"[exp])
}

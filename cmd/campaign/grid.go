package main

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"github.com/signguard/signguard/internal/campaign"
	"github.com/signguard/signguard/internal/cliutil"
	"github.com/signguard/signguard/internal/experiments"
	"github.com/signguard/signguard/internal/sanitize"
)

// gridFlags are the flags shared by run/status/export: they select,
// replicate and filter a campaign's cell grid, and optionally stamp a
// gradient-compression codec onto every cell.
type gridFlags struct {
	name       string
	scale      string
	seed       int64
	seeds      string
	filter     string
	cacheDir   string
	codec      string
	codecHyper string
	nonFinite  string
}

func (g *gridFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&g.name, "name", "all", "campaign name (see 'campaign list')")
	fs.StringVar(&g.scale, "scale", "bench", "scale preset: bench|standard|full")
	fs.Int64Var(&g.seed, "seed", 1, "experiment seed")
	fs.StringVar(&g.seeds, "seeds", "", "comma-separated seed list; replicates every cell per seed (overrides -seed)")
	fs.StringVar(&g.filter, "filter", "", "keep only cells whose ID contains this substring (applied after -seeds replication)")
	fs.StringVar(&g.cacheDir, "cache-dir", ".campaign-cache", "cell result cache directory")
	fs.StringVar(&g.codec, "codec", "", "gradient-compression codec stamped onto every cell (see 'campaign rules'; empty = cells' own codec axis)")
	fs.StringVar(&g.codecHyper, "codec-hyper", "", "codec hyperparameters as key=value[,key=value], e.g. k=64 (requires -codec)")
	fs.StringVar(&g.nonFinite, "nonfinite-policy", "", "non-finite ingest policy stamped onto every cell: "+strings.Join(sanitize.PolicyNames(), "|")+" (empty = legacy diverge-on-NaN)")
}

// parseSeeds parses the -seeds list ("1,2,3").
func parseSeeds(s string) ([]int64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("-seeds: bad seed %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

// params is the -scale preset at -seed.
func (g *gridFlags) params() (experiments.Params, error) {
	scale, err := experiments.ParseScale(g.scale)
	if err != nil {
		return experiments.Params{}, err
	}
	p := experiments.DefaultParams(scale)
	p.Seed = g.seed
	return p, nil
}

// narrow replicates spec across -seeds, keeps the cells -filter matches,
// then stamps -codec and -nonfinite-policy onto every cell. It is the
// single definition of "which cells do these flags select", shared by
// run/status/export and by the table export's per-experiment grids; the
// result may be empty.
func (g *gridFlags) narrow(spec campaign.Spec) (campaign.Spec, error) {
	seeds, err := parseSeeds(g.seeds)
	if err != nil {
		return campaign.Spec{}, err
	}
	hyper, err := cliutil.CodecHyper(g.codec, g.codecHyper)
	if err != nil {
		return campaign.Spec{}, err
	}
	if g.nonFinite != "" {
		if _, err := sanitize.ParsePolicy("-nonfinite-policy", g.nonFinite); err != nil {
			return campaign.Spec{}, err
		}
	}
	spec = campaign.ReplicateSeeds(spec, seeds).Filter(g.filter)
	// Codec and non-finite policy are cell identity: stamped cells hash and
	// cache separately from their originals, so run/status/export all see
	// the same grid for the same flags.
	spec = campaign.ApplyCodec(spec, g.codec, hyper)
	return campaign.ApplyNonFinite(spec, g.nonFinite), nil
}

// spec expands the -name campaign through narrow and refuses an empty grid.
func (g *gridFlags) spec() (campaign.Spec, error) {
	p, err := g.params()
	if err != nil {
		return campaign.Spec{}, err
	}
	spec, err := experiments.CampaignByName(g.name, p)
	if err != nil {
		return campaign.Spec{}, err
	}
	if spec, err = g.narrow(spec); err != nil {
		return campaign.Spec{}, err
	}
	if len(spec.Cells) == 0 {
		return campaign.Spec{}, fmt.Errorf("campaign %s: no cells match filter %q", g.name, g.filter)
	}
	return spec, nil
}

func (g *gridFlags) store() (*campaign.Store, error) {
	return campaign.OpenStore(g.cacheDir)
}

// forEachUniqueCell visits the spec's cells deduplicated by content hash,
// in spec order — the one definition of "which cells a campaign has" that
// status and export share.
func forEachUniqueCell(spec campaign.Spec, visit func(c campaign.Cell, key string) error) error {
	seen := map[string]bool{}
	for _, c := range spec.Cells {
		key, err := c.Key()
		if err != nil {
			return err
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		if err := visit(c, key); err != nil {
			return err
		}
	}
	return nil
}

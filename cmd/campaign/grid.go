package main

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"github.com/signguard/signguard/internal/campaign"
	"github.com/signguard/signguard/internal/experiments"
)

// gridFlags are the flags shared by run/status/export: they select,
// replicate and filter a campaign's cell grid.
type gridFlags struct {
	name     string
	scale    string
	seed     int64
	seeds    string
	filter   string
	cacheDir string
}

func (g *gridFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&g.name, "name", "all", "campaign name (see 'campaign list')")
	fs.StringVar(&g.scale, "scale", "bench", "scale preset: bench|standard")
	fs.Int64Var(&g.seed, "seed", 1, "experiment seed")
	fs.StringVar(&g.seeds, "seeds", "", "comma-separated seed list; replicates every cell per seed (overrides -seed)")
	fs.StringVar(&g.filter, "filter", "", "keep only cells whose ID contains this substring (applied after -seeds replication)")
	fs.StringVar(&g.cacheDir, "cache-dir", ".campaign-cache", "cell result cache directory")
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

// narrow replicates spec across -seeds and keeps the cells -filter
// matches. It is the single definition of "which cells do these flags
// select", shared by run/status/export and by the table export's
// per-experiment grids; the result may be empty.
func (g *gridFlags) narrow(spec campaign.Spec) (campaign.Spec, error) {
	seeds, err := parseSeeds(g.seeds)
	if err != nil {
		return campaign.Spec{}, err
	}
	return campaign.ReplicateSeeds(spec, seeds).Filter(g.filter), nil
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

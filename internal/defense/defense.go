// Package defense is the unified defense registry of the reproduction: one
// catalog mapping defense names to constructors, covering the paper's own
// SignGuard variants (internal/core) and every baseline gradient
// aggregation rule (internal/aggregate).
//
// Before this package, SignGuard reached the engine only by masquerading as
// an aggregate.Rule through ad-hoc closure tables in internal/experiments.
// Now a single Registry is consumed uniformly by the campaign engine, the
// experiments harness, every CLI, the serving path (flserver -rule) and the
// public façade. Each entry runs at one catalog configuration.
package defense

import (
	"fmt"

	"github.com/signguard/signguard/internal/aggregate"
	"github.com/signguard/signguard/internal/catalog"
	"github.com/signguard/signguard/internal/core"
)

// Params is the typed constructor input of every defense: the cohort
// geometry the paper grants the baselines.
type Params struct {
	// N is the number of gradients submitted per round, F the Byzantine
	// count granted to the baselines (SignGuard ignores it).
	N, F int
	// Seed drives any randomness inside the defense.
	Seed int64
}

// Spec declares one registered defense.
type Spec struct {
	// Name is the stable registry key (the paper's table row label).
	Name string
	// Build constructs a fresh instance for one training run.
	Build func(p Params) (aggregate.Rule, error)
}

// Registry is the ordered name → defense catalog (internal/catalog) plus
// the defense-specific build and validation. Use Builtin. The catalog is
// unexported so that every entry goes through Register: keyed by its own
// Name, with a constructor.
type Registry struct {
	specs *catalog.Catalog[Spec]
}

// Register adds a defense spec under the catalog's rules: registration
// order is presentation order, and re-registering replaces in place.
func (r *Registry) Register(s Spec) error {
	if s.Name != "" && s.Build == nil {
		return fmt.Errorf("defense: %s has no constructor", s.Name)
	}
	return r.specs.Register(s.Name, s)
}

// Names returns the registered defense names in presentation order.
func (r *Registry) Names() []string { return r.specs.Names() }

// Lookup returns the spec registered under name.
func (r *Registry) Lookup(name string) (Spec, error) { return r.specs.Lookup(name) }

// Build constructs the named defense. Every built rule is wrapped in an
// aggregate.FiniteGuard: whatever a defense does with a hostile buffer, a
// non-finite aggregate surfaces as an error (wrapping
// aggregate.ErrNonFiniteAggregate) instead of poisoning the model. Callers
// needing the concrete rule type unwrap with aggregate.Unwrap.
func (r *Registry) Build(name string, p Params) (aggregate.Rule, error) {
	s, err := r.Lookup(name)
	if err != nil {
		return nil, err
	}
	rule, err := s.Build(p)
	if err != nil {
		return nil, err
	}
	return aggregate.Guard(rule), nil
}

// Builtin returns the registry of the paper's ten Table I defenses, in row
// order, followed by the related-work families beyond the paper's table:
// FLTrust server learning, FLAME-style clustering and the median-of-means
// neighborhood filter. Callers may extend the returned registry freely
// (e.g. the Table III ablation variants); each call returns a fresh copy.
func Builtin() *Registry {
	return &Registry{catalog.Must("defense", func(s Spec) string { return s.Name }, []Spec{
		{Name: "Mean", Build: func(Params) (aggregate.Rule, error) {
			return aggregate.NewMean(), nil
		}},
		{Name: "TrMean", Build: func(p Params) (aggregate.Rule, error) {
			return aggregate.NewTrimmedMean(p.F), nil
		}},
		{Name: "Median", Build: func(Params) (aggregate.Rule, error) {
			return aggregate.NewMedian(), nil
		}},
		{Name: "GeoMed", Build: func(Params) (aggregate.Rule, error) {
			return aggregate.NewGeoMed(), nil
		}},
		{Name: "Multi-Krum", Build: func(p Params) (aggregate.Rule, error) {
			// Krum needs n >= 2F+3; cap the assumed F for small cohorts with
			// large Byzantine fractions, as implementations do.
			f := p.F
			if maxF := (p.N - 3) / 2; f > maxF {
				f = maxF
			}
			if f < 0 {
				f = 0
			}
			return aggregate.NewMultiKrum(f, p.N-f), nil
		}},
		{Name: "Bulyan", Build: func(p Params) (aggregate.Rule, error) {
			// Bulyan requires n >= 4f+2; cap the assumed f like the original
			// implementation does for large Byzantine fractions.
			f := p.F
			if maxF := (p.N - 2) / 4; f > maxF {
				f = maxF
			}
			return aggregate.NewBulyan(f), nil
		}},
		{Name: "DnC", Build: func(p Params) (aggregate.Rule, error) {
			return aggregate.NewDnC(p.F, p.Seed), nil
		}},
		{Name: "SignGuard", Build: func(p Params) (aggregate.Rule, error) {
			return core.NewPlain(p.Seed), nil
		}},
		{Name: "SignGuard-Sim", Build: func(p Params) (aggregate.Rule, error) {
			return core.NewSim(p.Seed), nil
		}},
		{Name: "SignGuard-Dist", Build: func(p Params) (aggregate.Rule, error) {
			return core.NewDist(p.Seed), nil
		}},
		{Name: "FLTrust", Build: func(Params) (aggregate.Rule, error) {
			return aggregate.NewFLTrust(), nil
		}},
		{Name: "FLAME", Build: func(p Params) (aggregate.Rule, error) {
			return aggregate.NewFLAME(p.Seed), nil
		}},
		{Name: "MoM", Build: func(Params) (aggregate.Rule, error) {
			return aggregate.NewMedianOfMeans(), nil
		}},
	}...)}
}

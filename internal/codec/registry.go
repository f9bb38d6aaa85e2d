package codec

import (
	"fmt"

	"github.com/signguard/signguard/internal/catalog"
)

// Params is the typed constructor input of every codec: optional named
// hyperparameters, mirroring defense.Params.
type Params struct {
	// Hyper holds optional codec-specific hyperparameters by name. Absent
	// keys fall back to the codec's default; unknown keys are rejected by
	// Registry.Build so a typo cannot silently run defaults.
	Hyper map[string]float64
}

// Spec declares one registered codec.
type Spec struct {
	// Name is the stable registry key and the Encoded.Codec wire tag.
	Name string
	// Hyper lists the hyperparameter names the constructor accepts.
	Hyper []string
	// Build constructs an instance with the given hyperparameters.
	Build func(p Params) (Codec, error)

	// Lossless declares that Decode(Encode(g)) reproduces g bit for bit.
	// The conformance suite enforces it.
	Lossless bool
	// MinCosine is the minimum cosine similarity a default-configuration
	// round trip must preserve on dense Gaussian vectors — the lossy
	// codec's declared error bound, enforced by the conformance suite.
	// Ignored when Lossless (the bound is exactness).
	MinCosine float64
}

// Registry is the ordered name → codec catalog (internal/catalog) plus the
// codec-specific build, validation and decode dispatch. Use Builtin. The
// catalog is unexported so that every entry goes through Register: keyed by
// its own Name (the wire tag), with a constructor.
type Registry struct {
	specs *catalog.Catalog[Spec]
}

// Register adds a codec spec under the catalog's rules: registration order
// is presentation order, and re-registering replaces in place.
func (r *Registry) Register(s Spec) error {
	if s.Name != "" && s.Build == nil {
		return fmt.Errorf("codec: %s has no constructor", s.Name)
	}
	return r.specs.Register(s.Name, s)
}

// Names returns the registered codec names in presentation order.
func (r *Registry) Names() []string { return r.specs.Names() }

// Has reports whether name is registered.
func (r *Registry) Has(name string) bool { return r.specs.Has(name) }

// Lookup returns the spec registered under name.
func (r *Registry) Lookup(name string) (Spec, error) { return r.specs.Lookup(name) }

// Values returns the registered specs in presentation order.
func (r *Registry) Values() []Spec { return r.specs.Values() }

// Build constructs the named codec. Hyperparameter keys not declared by
// the spec are an error: a sweep axis that silently fell back to defaults
// would corrupt a whole grid.
func (r *Registry) Build(name string, p Params) (Codec, error) {
	s, err := r.Lookup(name)
	if err != nil {
		return nil, err
	}
	if err := catalog.CheckHyper("codec", name, s.Hyper, p.Hyper); err != nil {
		return nil, err
	}
	return s.Build(p)
}

// ValidateHyper checks that name is registered and accepts every given
// hyperparameter, without building anything — the pre-flight check grid
// validation runs before a sweep starts.
func (r *Registry) ValidateHyper(name string, hyper map[string]float64) error {
	s, err := r.Lookup(name)
	if err != nil {
		return err
	}
	return catalog.CheckHyper("codec", name, s.Hyper, hyper)
}

// Decode reconstructs a gradient from a wire payload, dispatching on the
// payload's own Codec tag. Decoding never depends on sender-side
// hyperparameters (everything needed travels in the payload), so the
// receiver builds the named codec with defaults.
func (r *Registry) Decode(e Encoded) ([]float64, error) {
	c, err := r.Build(e.Codec, Params{})
	if err != nil {
		return nil, err
	}
	return c.Decode(e)
}

// Builtin returns the registry of the four shipped codecs. Callers may
// extend the returned registry freely; each call returns a fresh copy.
func Builtin() *Registry {
	return &Registry{catalog.Must("codec", func(s Spec) string { return s.Name }, []Spec{
		{Name: Identity, Lossless: true, Build: func(Params) (Codec, error) {
			return IdentityCodec{}, nil
		}},
		// Declared MinCosine bounds are deliberately conservative: topk keeps
		// the dominant squared mass (~0.6 cosine on Gaussian vectors at the
		// default d/10), qsgd's 4-level grid lands near 0.78 on Gaussian
		// vectors, and signsgd's sign vector aligns with a Gaussian input at
		// √(2/π) ≈ 0.80 in expectation.
		{Name: TopK, Hyper: []string{"k"}, MinCosine: 0.4, Build: func(p Params) (Codec, error) {
			k := int(catalog.Hyper(p.Hyper, "k", 0))
			if k < 0 {
				return nil, fmt.Errorf("codec: topk k %d must be >= 0 (0 = d/10)", k)
			}
			return TopKCodec{K: k}, nil
		}},
		{Name: QSGD, Hyper: []string{"levels"}, MinCosine: 0.7, Build: func(p Params) (Codec, error) {
			s := int(catalog.Hyper(p.Hyper, "levels", DefaultQSGDLevels))
			if s < 1 || s > 127 {
				return nil, fmt.Errorf("codec: qsgd levels %d out of [1,127]", s)
			}
			return QSGDCodec{Levels: s}, nil
		}},
		{Name: SignSGD, MinCosine: 0.5, Build: func(Params) (Codec, error) {
			return SignSGDCodec{}, nil
		}},
	}...)}
}

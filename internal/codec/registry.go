package codec

import (
	"fmt"

	"github.com/signguard/signguard/internal/catalog"
)

// Params is the constructor input of every codec. It is empty: each codec
// runs at its one catalog configuration.
type Params struct{}

// Spec declares one registered codec.
type Spec struct {
	// Name is the stable registry key and the Encoded.Codec wire tag.
	Name string
	// Build constructs an instance.
	Build func(p Params) (Codec, error)

	// Lossless declares that Decode(Encode(g)) reproduces g bit for bit.
	// The conformance suite enforces it.
	Lossless bool
	// MinCosine is the minimum cosine similarity a round trip must preserve
	// on dense Gaussian vectors — the lossy codec's declared error bound,
	// enforced by the conformance suite.
	// Ignored when Lossless (the bound is exactness).
	MinCosine float64
}

// Registry is the ordered name → codec catalog (internal/catalog) plus the
// codec-specific build and decode dispatch. Use Builtin. The catalog is
// unexported so that every entry goes through Register: keyed by its own
// Name (the wire tag), with a constructor.
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

// Build constructs the named codec.
func (r *Registry) Build(name string, p Params) (Codec, error) {
	s, err := r.Lookup(name)
	if err != nil {
		return nil, err
	}
	return s.Build(p)
}

// Decode reconstructs a gradient from a wire payload, dispatching on the
// payload's own Codec tag. Everything decoding needs (topk's indices,
// qsgd's level count) travels in the payload.
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
		// the dominant squared mass (~0.6 cosine on Gaussian vectors at its
		// d/10), qsgd's 4-level grid lands near 0.78 on Gaussian vectors,
		// and signsgd's sign vector aligns with a Gaussian input at
		// √(2/π) ≈ 0.80 in expectation.
		{Name: TopK, MinCosine: 0.4, Build: func(Params) (Codec, error) {
			return TopKCodec{}, nil
		}},
		{Name: QSGD, MinCosine: 0.7, Build: func(Params) (Codec, error) {
			return QSGDCodec{}, nil
		}},
		{Name: SignSGD, MinCosine: 0.5, Build: func(Params) (Codec, error) {
			return SignSGDCodec{}, nil
		}},
	}...)}
}

package attack_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"github.com/signguard/signguard/internal/attack"
	"github.com/signguard/signguard/internal/data"
	"github.com/signguard/signguard/internal/tensor"
)

// goldenContext is one fixed adversary view of TestCatalogCraftGolden: a
// cohort drawn from seed, and the catalog parameter each entry is built
// with (entries absent from params get 0, their documented default).
type goldenContext struct {
	name             string
	seed             int64
	benign, byz, dim int
	center, spread   float64
	params           map[string]float64
}

var goldenContexts = []goldenContext{
	{name: "defaults", seed: 41, benign: 6, byz: 3, dim: 24, center: 0.2, spread: 1},
	{name: "params", seed: 43, benign: 9, byz: 2, dim: 10, center: -0.1, spread: 0.5,
		params: map[string]float64{"LIE": 0.5, "Reverse": 5, "TimeVarying": 3, "Backdoor": 6}},
}

// goldenHistory is the filtering feedback TestCatalogCraftGolden replays:
// call r sees the first r entries. It mixes filtered, fully accepted,
// partially accepted and selection-free rounds, so both ends of the
// adaptive throttle and its hold band are crossed.
func goldenHistory(byz int) []attack.Observation {
	kept := []int{byz, 0, -1, byz - 1, 0, 0, 0, byz, byz, -1, 0, byz}
	h := make([]attack.Observation, len(kept))
	for r, k := range kept {
		h[r] = attack.Observation{Round: r, TotalByz: byz, TotalHonest: 4, SelectedHonest: 4}
		if k >= 0 {
			h[r].HasSelection, h[r].SelectedByz = true, k
		}
	}
	return h
}

// goldenCraftDigests pins the exact output bits of every catalog entry:
// "<entry>/<context>" → FNV-64a of the Float64bits of its 12 crafted rounds
// (and, for data poisoners, of its PoisonData output).
var goldenCraftDigests = map[string]string{
	"Adaptive-Min-Max/defaults": "c32f69e57146459c",
	"Adaptive-Min-Max/params":   "f173b3afd0320f19",
	"Backdoor/defaults":         "1c860a3ee6144d2e",
	"Backdoor/params":           "72d9e5931ec4d85d",
	"ByzMean/defaults":          "2953b0fff5f82195",
	"ByzMean/params":            "f5c2c060764265e5",
	"LIE/defaults":              "5d8aa937c528d955",
	"LIE/params":                "d22dca9e3a9e8a15",
	"Label-flip/defaults":       "17ea3aff89c9a006",
	"Label-flip/params":         "f2948293e5ee2326",
	"Min-Max/defaults":          "366dda9270cfdd75",
	"Min-Max/params":            "741a0aa3a5c34a75",
	"Min-Sum/defaults":          "70174096b81c80ad",
	"Min-Sum/params":            "39a36afb0a99e975",
	"NoAttack/defaults":         "99598971fafa2385",
	"NoAttack/params":           "a8a21a3ad076a565",
	"Noise/defaults":            "8f81cdb252ad8fec",
	"Noise/params":              "f73eb2edf3634932",
	"NonFinite-NaN/defaults":    "38781ec17c7a6aa5",
	"NonFinite-NaN/params":      "0de4d86ba0b05c65",
	"Random/defaults":           "c68386310a90a632",
	"Random/params":             "662b2661bd1b103e",
	"Reverse/defaults":          "8355a84bd5367085",
	"Reverse/params":            "b4456393d0edde3d",
	"Sign-flip/defaults":        "8355a84bd5367085",
	"Sign-flip/params":          "d8933ac0f8231a65",
	"SignKeep/defaults":         "25eea11d75188e0d",
	"SignKeep/params":           "8622c0255e3743a1",
	"TimeVarying/defaults":      "926745f2a5ed609d",
	"TimeVarying/params":        "ec0e068d12674d2e",
}

// TestCatalogCraftGolden builds every attack.Builtin() entry on each golden
// context, crafts 12 consecutive rounds from one RNG seeded per entry
// (Round advancing by one per call, History growing with it), and compares
// the hash of the result bits with a table recorded before the attacks'
// settable fields were removed: a refactor of the attack package must
// leave every output bit where it was.
func TestCatalogCraftGolden(t *testing.T) {
	got := map[string]string{}
	for _, gc := range goldenContexts {
		rng := tensor.NewRNG(gc.seed)
		gen := func(n int) [][]float64 {
			out := make([][]float64, n)
			for i := range out {
				out[i] = tensor.RandNormal(rng, gc.dim, gc.center, gc.spread)
			}
			return out
		}
		benign, byzOwn := gen(gc.benign), gen(gc.byz)
		history := goldenHistory(gc.byz)
		for i, spec := range attack.Builtin().Values() {
			key := spec.Name + "/" + gc.name
			att, err := spec.New(gc.params[spec.Name], gc.seed+int64(i))
			if err != nil {
				t.Fatalf("%s: build: %v", key, err)
			}
			adv := attack.Promote(att)
			h := fnv.New64a()
			word := func(u uint64) {
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], u)
				h.Write(b[:])
			}
			vec := func(v []float64) {
				word(uint64(len(v)))
				for _, x := range v {
					word(math.Float64bits(x))
				}
			}
			craftRng := tensor.NewRNG(gc.seed + 100 + int64(i))
			for r := range history {
				out, err := adv.Craft(&attack.Context{
					Benign: benign, ByzOwn: byzOwn, Rng: craftRng,
					Round: r, History: history[:r],
				})
				if err != nil {
					t.Fatalf("%s round %d: %v", key, r, err)
				}
				word(uint64(len(out)))
				for _, g := range out {
					vec(g)
				}
			}
			if p, ok := att.(attack.DataPoisoner); ok {
				xs := goldenExamples()
				poisoned, err := p.PoisonData(xs, 4)
				if err != nil {
					t.Fatalf("%s: PoisonData: %v", key, err)
				}
				for _, e := range poisoned {
					vec(e.Features)
					word(uint64(len(e.Tokens)))
					for _, tok := range e.Tokens {
						word(uint64(tok))
					}
					word(uint64(e.Label))
				}
			}
			got[key] = fmt.Sprintf("%016x", h.Sum64())
		}
	}
	for key, sum := range got {
		if want, ok := goldenCraftDigests[key]; !ok {
			t.Errorf("%q: %q, missing from the table", key, sum)
		} else if sum != want {
			t.Errorf("%q: digest %s, want %s", key, sum, want)
		}
	}
	for key := range goldenCraftDigests {
		if _, ok := got[key]; !ok {
			t.Errorf("%q: in the table, no longer crafted", key)
		}
	}
}

// goldenExamples is the local dataset the golden data poisoners rewrite:
// image-like and text-like examples over 4 classes.
func goldenExamples() []data.Example {
	var xs []data.Example
	for i := 0; i < 7; i++ {
		xs = append(xs, data.Example{Features: []float64{0.1 * float64(i), 0.5, -0.25, 0.75, 0.3}, Label: i % 4})
	}
	for i := 0; i < 5; i++ {
		xs = append(xs, data.Example{Tokens: []int{i + 1, 2 * i, 7, 3}, Label: (i + 1) % 4})
	}
	return xs
}

package catalog_test

import (
	"slices"
	"testing"

	"github.com/signguard/signguard/internal/attack"
	"github.com/signguard/signguard/internal/catalog"
	"github.com/signguard/signguard/internal/codec"
	"github.com/signguard/signguard/internal/defense"
)

// TestOrderAndReplaceInPlace: registration order is presentation order,
// and re-registering a name replaces its value without moving it.
func TestOrderAndReplaceInPlace(t *testing.T) {
	c := catalog.New[int]("thing")
	for _, e := range []struct {
		name string
		v    int
	}{{"b", 1}, {"a", 2}, {"c", 3}, {"b", 4}} {
		if err := c.Register(e.name, e.v); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := c.Names(), []string{"b", "a", "c"}; !slices.Equal(got, want) {
		t.Errorf("Names() = %v, want %v", got, want)
	}
	if got, want := c.Values(), []int{4, 2, 3}; !slices.Equal(got, want) {
		t.Errorf("Values() = %v, want %v", got, want)
	}
	if v, err := c.Lookup("b"); err != nil || v != 4 {
		t.Errorf("Lookup(b) = %d, %v; want the replacement 4", v, err)
	}
	if !c.Has("a") || c.Has("z") {
		t.Errorf("Has(a) = %v, Has(z) = %v", c.Has("a"), c.Has("z"))
	}
	// Names hands out a copy: a caller appending to it cannot reorder the
	// catalog.
	names := c.Names()
	names[0] = "x"
	if c.Names()[0] != "b" {
		t.Error("Names() aliases the catalog's order")
	}
}

// TestMustRefusesRepeats: a static table may not list a name twice (Register
// would drop the earlier entry in place) or leave one empty.
func TestMustRefusesRepeats(t *testing.T) {
	id := func(s string) string { return s }
	if got := catalog.Must("thing", id, "b", "a").Names(); !slices.Equal(got, []string{"b", "a"}) {
		t.Errorf("Must(b, a).Names() = %v", got)
	}
	for _, items := range [][]string{{"a", "b", "a"}, {"a", ""}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Must(%q) did not panic", items)
				}
			}()
			catalog.Must("thing", id, items...)
		}()
	}
}

// TestMessages pins every registry's refusal messages byte for byte: the
// CLIs print them, and scripts match on them.
func TestMessages(t *testing.T) {
	defs, codecs, attacks := defense.Builtin(), codec.Builtin(), attack.Builtin()
	errOf := func(_ any, err error) error { return err }
	for _, tc := range []struct {
		err  error
		want string
	}{
		{catalog.New[int]("thing").Register("", 1), `thing: spec with empty name`},
		{defs.Register(defense.Spec{}), `defense: spec with empty name`},
		{codecs.Register(codec.Spec{}), `codec: spec with empty name`},
		{defs.Register(defense.Spec{Name: "X"}), `defense: X has no constructor`},
		{codecs.Register(codec.Spec{Name: "x"}), `codec: x has no constructor`},
		{errOf(defs.Lookup("NoSuchDefense")), `defense: unknown defense "NoSuchDefense"`},
		{errOf(defs.Build("NoSuchDefense", defense.Params{N: 10, F: 2})), `defense: unknown defense "NoSuchDefense"`},
		{errOf(codecs.Lookup("nope")), `codec: unknown codec "nope"`},
		{errOf(codecs.Decode(codec.Encoded{Codec: "nope"})), `codec: unknown codec "nope"`},
		{errOf(attacks.Lookup("nope")), `attack: unknown attack "nope"`},
		// An unknown name that matches one registered name up to case, '-'
		// and '_' names it; no match, or an ambiguous one, adds nothing.
		{errOf(defs.Lookup("signguard")), `defense: unknown defense "signguard" (did you mean "SignGuard"?)`},
		{errOf(defs.Build("signguard-sim", defense.Params{N: 10, F: 2})), `defense: unknown defense "signguard-sim" (did you mean "SignGuard-Sim"?)`},
		{errOf(defs.Lookup("multi_krum")), `defense: unknown defense "multi_krum" (did you mean "Multi-Krum"?)`},
		{errOf(defs.Lookup("krum")), `defense: unknown defense "krum"`},
		{errOf(attacks.Lookup("signflip")), `attack: unknown attack "signflip" (did you mean "Sign-flip"?)`},
		{errOf(codecs.Lookup("TopK")), `codec: unknown codec "TopK" (did you mean "topk"?)`},
		{errOf(catalog.Must("thing", func(s string) string { return s }, "a-b", "a_b").Lookup("ab")), `thing: unknown thing "ab"`},
	} {
		if tc.err == nil || tc.err.Error() != tc.want {
			t.Errorf("error %v, want %q", tc.err, tc.want)
		}
	}
}

// Package catalog is the one ordered name → value table of the harness:
// the defense, codec and attack registries, the campaign datasets and
// probes, and the experiment list are each a Catalog, so registration
// order, replacement and the unknown-name message are defined once.
package catalog

import (
	"fmt"
	"slices"
	"strings"
)

// Catalog maps names to values in registration order, which is the order
// every listing presents. Build one with New, or Must for a static table.
type Catalog[T any] struct {
	kind  string
	order []string
	items map[string]T
}

// New returns an empty catalog whose errors are prefixed by kind
// ("defense", "codec", "attack", ...).
func New[T any](kind string) *Catalog[T] {
	return &Catalog[T]{kind: kind, items: map[string]T{}}
}

// Must builds a catalog of kind from a static table, keying each item by
// name(item). An empty or repeated name panics: Register would replace the
// earlier entry in place, silently dropping it from a table meant to list
// each entry once.
func Must[T any](kind string, name func(T) string, items ...T) *Catalog[T] {
	c := New[T](kind)
	for _, v := range items {
		n := name(v)
		if c.Has(n) {
			panic(fmt.Sprintf("%s: %s declared twice", kind, n))
		}
		if err := c.Register(n, v); err != nil {
			panic(err)
		}
	}
	return c
}

// Register adds v under name. Re-registering a name replaces the value but
// keeps its original position, so presentation order stays stable.
func (c *Catalog[T]) Register(name string, v T) error {
	if name == "" {
		return fmt.Errorf("%s: spec with empty name", c.kind)
	}
	if _, ok := c.items[name]; !ok {
		c.order = append(c.order, name)
	}
	c.items[name] = v
	return nil
}

// Names returns the registered names in registration order.
func (c *Catalog[T]) Names() []string { return slices.Clone(c.order) }

// Has reports whether name is registered.
func (c *Catalog[T]) Has(name string) bool {
	_, ok := c.items[name]
	return ok
}

// Lookup returns the value registered under name. When an unknown name
// matches exactly one registered name once case, '-' and '_' are ignored,
// the error suggests it: "signflip" gets (did you mean "Sign-flip"?).
func (c *Catalog[T]) Lookup(name string) (T, error) {
	v, ok := c.items[name]
	if !ok {
		return v, fmt.Errorf("%s: unknown %s %q%s", c.kind, c.kind, name, c.suggest(name))
	}
	return v, nil
}

// suggest returns the " (did you mean ...?)" suffix for an unknown name,
// or "" when no registered name, or more than one, matches it loosely.
func (c *Catalog[T]) suggest(name string) string {
	loose := strings.NewReplacer("-", "", "_", "")
	var match []string
	for _, n := range c.order {
		if strings.EqualFold(loose.Replace(n), loose.Replace(name)) {
			match = append(match, n)
		}
	}
	if len(match) != 1 {
		return ""
	}
	return fmt.Sprintf(" (did you mean %q?)", match[0])
}

// Values returns the registered values in registration order.
func (c *Catalog[T]) Values() []T {
	out := make([]T, len(c.order))
	for i, name := range c.order {
		out[i] = c.items[name]
	}
	return out
}

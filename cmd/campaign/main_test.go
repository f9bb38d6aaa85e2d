package main

import (
	"strings"
	"testing"
)

// TestRemovedSubcommandsAreUnknown: `campaign run` is the only scheduler.
// The coordinator and worker subcommands are refused by name, whatever
// flags they are given, instead of starting anything.
func TestRemovedSubcommandsAreUnknown(t *testing.T) {
	for _, cmd := range []string{"serve", "work"} {
		t.Run(cmd, func(t *testing.T) {
			err := dispatch(cmd, []string{"-addr", "127.0.0.1:0", "-workers", "1"})
			if want := `unknown subcommand "` + cmd + `"`; err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("dispatch(%q) = %v, want an error containing %s", cmd, err, want)
			}
		})
	}
}

package main

import (
	"flag"
	"strings"
	"testing"

	"github.com/signguard/signguard/internal/experiments"
)

// TestRunRefusesBadFlags covers the refusals that return before any cell
// trains: each run would otherwise start a sweep.
func TestRunRefusesBadFlags(t *testing.T) {
	for _, tc := range []struct {
		name, exp, dataset, codec, codecHyper string
		want                                  []string
	}{
		{name: "unknown -exp lists the catalog", exp: "table9", want: experiments.CampaignNames()},
		{name: "-dataset outside Table I", exp: "table2", dataset: "mnist", want: []string{"-dataset", "table2"}},
		{name: "-dataset on fig4", exp: "fig4", dataset: "cifar", want: []string{"-dataset"}},
		{name: "unknown -dataset", exp: "table1", dataset: "imagenet", want: []string{"imagenet"}},
		{name: "-codec-hyper without -codec", exp: "table1", codecHyper: "k=64", want: []string{"-codec-hyper requires -codec"}},
	} {
		err := run(tc.exp, tc.dataset, "bench", "md", "", 1, 1, tc.codec, tc.codecHyper, "", false)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q does not name %q", tc.name, err, w)
			}
		}
	}
}

// TestExpUsageNamesCatalog: the -exp help is built from the experiment
// catalog, so a new entry cannot be missing from it.
func TestExpUsageNamesCatalog(t *testing.T) {
	usage := flag.Lookup("exp").Usage
	for _, name := range experiments.CampaignNames() {
		if !strings.Contains(usage, name) {
			t.Errorf("-exp usage %q does not name %s", usage, name)
		}
	}
}

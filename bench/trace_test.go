package main

import (
	"math"
	"testing"
	"time"
)

func TestSelfTimeNestedAndOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		// Two children overlap on [30,40]; a third sticks out past the
		// parent's end and is clipped to [90,100].
		{ID: 2, Name: "a", Parent: 1, Start: 10, End: 40},
		{ID: 3, Name: "b", Parent: 1, Start: 30, End: 60},
		{ID: 4, Name: "c", Parent: 1, Start: 90, End: 120},
		// A grandchild takes from its own parent only.
		{ID: 5, Name: "a1", Parent: 2, Start: 15, End: 25},
		// A child entirely inside an earlier sibling adds nothing.
		{ID: 6, Name: "d", Parent: 1, Start: 12, End: 20},
	}
	self := selfNS(spans)
	for id, want := range map[int]int64{
		1: 100 - (50 + 10), // covered: [10,60] and [90,100]
		2: 30 - 10,
		3: 30,
		4: 30,
		5: 10,
		6: 8,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestTracerParentAndOpIDs(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root", 7, 0)
	now := time.Now()
	child := tr.add("child", tr.opOf(root), root, now, now.Add(time.Millisecond))
	tr.end(root)

	spans := tr.snapshot()
	if len(spans) != 2 || spans[0].ID != root || spans[1].ID != child || root == child {
		t.Fatalf("unexpected spans %+v", spans)
	}
	if spans[1].Parent != root || spans[1].OpID != 7 || spans[0].Parent != 0 {
		t.Errorf("child = %+v, want parent %d and op id 7", spans[1], root)
	}
	if spans[1].dur() != int64(time.Millisecond) {
		t.Errorf("child duration = %d ns", spans[1].dur())
	}
	if spans[0].End < spans[0].Start {
		t.Errorf("root ends before it starts: %+v", spans[0])
	}
	if got := tr.opOf(99); got != 0 {
		t.Errorf("opOf of a missing span = %d, want 0", got)
	}
	if got := sumNS(spans, "child"); got != int64(time.Millisecond) {
		t.Errorf("sumNS(child) = %d", got)
	}
}

// The stage spans plus the engine's self time must account for the whole
// Run: the decorators leave no gap and count nothing twice.
func TestSimStageAccountingCloses(t *testing.T) {
	for _, s := range simSpecs(true) {
		s.rounds = 6 // enough rounds that timer granularity is not 2%
		inst, _, err := s.setup(env{seed: 1, workers: 2, tmpDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		u, err := inst.unit(newTracer())
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, stage := range []string{"participation", "local", "adversary", "codec_encode", "codec_decode", "defense", "update", "step_self"} {
			v, ok := u.layers["fl."+stage+"_ms_per_round"]
			if !ok {
				t.Fatalf("%s: no fl.%s_ms_per_round", s.name, stage)
			}
			sum += v * float64(s.rounds)
		}
		wallMS := float64(u.wall) / float64(time.Millisecond)
		if math.Abs(sum-wallMS) > 0.02*wallMS {
			t.Errorf("%s: stages + self = %.3f ms, Run wall = %.3f ms", s.name, sum, wallMS)
		}
		var rounds int
		for _, sp := range u.spans {
			if sp.Name == "fl.round" {
				rounds++
			}
		}
		if rounds != s.rounds {
			t.Errorf("%s: %d round spans, want %d", s.name, rounds, s.rounds)
		}
	}
}

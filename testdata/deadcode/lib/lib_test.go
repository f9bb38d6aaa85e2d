package lib

import "testing"

func TestOnlyTested(t *testing.T) {
	if OnlyTested() != 1 {
		t.Fatal("OnlyTested")
	}
}

func TestOnlyTestSet(t *testing.T) {
	if k := (Knobs{OnlyTestSet: 1}); k.OnlyTestSet != 1 {
		t.Fatal("OnlyTestSet")
	}
}

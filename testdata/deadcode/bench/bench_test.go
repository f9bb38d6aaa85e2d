package main

import (
	"testing"

	"example.com/deadcode/lib"
)

func TestBenchOnly(t *testing.T) {
	if lib.BenchOnly() != 2 {
		t.Fatal("BenchOnly")
	}
}

// Command deadcode is the scan fixture's only caller of lib.
package main

import "example.com/deadcode/lib"

func main() {
	var sh lib.Shape = lib.Square{Side: 2}
	var s lib.Stack[float64]
	s.Push(sh.Area())

	knobs := []lib.Knobs{{Keyed: 1}}
	k := &knobs[0]
	k.Assigned = 2
	k.Incremented++
	p := &k.Addressed
	for k.Ranged = range 3 {
	}
	k.Nested.Inner = *p
	pairs := []*lib.Pair{{1, 2}}
	s.Push(float64(pairs[0].A + pairs[0].B + k.Keyed + k.Assigned + k.Incremented + k.Ranged + k.Nested.Inner + k.OnlyTestSet))
}

// Command deadcode is the scan fixture's only caller of lib.
package main

import "example.com/deadcode/lib"

func main() {
	var sh lib.Shape = lib.Square{Side: 2}
	var s lib.Stack[float64]
	s.Push(sh.Area())
}

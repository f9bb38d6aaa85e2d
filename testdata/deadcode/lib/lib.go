// Package lib holds one declaration of each kind the dead-code scan judges.
package lib

// Shape is satisfied by Square; Area is called through it only.
type Shape interface{ Area() float64 }

// OnlyTested is called from lib_test.go only: the scan reports it.
func OnlyTested() int { return 1 }

// BenchOnly is called from a bench/ test only, which counts as a caller.
func BenchOnly() int { return 2 }

type Square struct{ Side float64 }

func (s Square) Area() float64 { return s.Side * s.Side }

// Stack's Push is called through the instance Stack[int].
type Stack[T any] struct{ items []T }

func (s *Stack[T]) Push(v T) { s.items = append(s.items, v) }

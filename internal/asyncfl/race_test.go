//go:build race

package asyncfl

func init() { raceEnabled = true }

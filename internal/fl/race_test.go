//go:build race

package fl

func init() { raceEnabled = true }

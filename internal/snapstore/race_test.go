//go:build race

package snapstore

func init() { raceEnabled = true }

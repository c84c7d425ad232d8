//go:build race

package core

// raceEnabled reports that this binary was built with -race, under which
// sync.Pool drops items at random and a pooled path allocates.
const raceEnabled = true

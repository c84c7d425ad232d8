//go:build race

package orb

// raceEnabled reports that this binary was built with -race, under which
// sync.Pool drops items at random and allocation counts do not hold.
const raceEnabled = true

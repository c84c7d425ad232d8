//go:build !race

package orb

const raceEnabled = false

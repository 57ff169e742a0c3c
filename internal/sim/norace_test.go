//go:build !race

package sim_test

// raceEnabled reports a -race build, whose runtime allocates on its own.
const raceEnabled = false

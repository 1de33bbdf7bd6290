//go:build !race

package netsim

// raceEnabled reports a -race build, whose instrumentation allocates
// and skews byte counts.
const raceEnabled = false

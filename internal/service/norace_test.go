//go:build !race

package service

// raceEnabled reports a -race build, whose shadow memory and slower
// runs skew heap measurements.
const raceEnabled = false

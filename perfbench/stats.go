package main

import (
	"math"
	"slices"
	"time"
)

// failedLatency is the latency recorded for a failed op: a failure
// misses any latency limit, so it ranks above every completed op.
const failedLatency = time.Duration(math.MaxInt64)

// minOpsForP90 is the smallest op count a p90 is reported from: with
// 100 ops at least ten samples lie beyond the 90th percentile.
const minOpsForP90 = 100

// nearestRank returns the nearest-rank p-th percentile (0 < p <= 100)
// of xs: the smallest value with at least p% of the samples at or below
// it. xs need not be sorted; it is not modified.
func nearestRank(xs []time.Duration, p float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	rank = max(rank, 1)
	return s[rank-1]
}

// p90 is the nearest-rank 90th percentile, reported only from at least
// minOpsForP90 samples.
func p90(xs []time.Duration) (time.Duration, bool) {
	if len(xs) < minOpsForP90 {
		return 0, false
	}
	return nearestRank(xs, 90), true
}

// median is the nearest-rank 50th percentile.
func median(xs []time.Duration) time.Duration { return nearestRank(xs, 50) }

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

package main

import (
	"testing"
	"time"
)

func TestNearestRank(t *testing.T) {
	// 1..10 ms, shuffled: nearest rank is ceil(p/100*n).
	xs := []time.Duration{7, 3, 10, 1, 5, 9, 2, 8, 6, 4}
	for i := range xs {
		xs[i] *= time.Millisecond
	}
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{50, 5}, {90, 9}, {91, 10}, {100, 10}, {1, 1}, {10, 1}, {11, 2}} {
		if got := nearestRank(xs, c.p); got != c.want*time.Millisecond {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want*time.Millisecond)
		}
	}
	if xs[0] != 7*time.Millisecond {
		t.Error("nearestRank reordered its input")
	}
	if got := median(xs[:1]); got != 7*time.Millisecond {
		t.Errorf("median of one sample = %v", got)
	}
}

func TestP90NeedsHundredOps(t *testing.T) {
	xs := make([]time.Duration, minOpsForP90-1)
	for i := range xs {
		xs[i] = time.Duration(i + 1)
	}
	if _, ok := p90(xs); ok {
		t.Fatalf("p90 reported from %d ops", len(xs))
	}
	xs = append(xs, minOpsForP90)
	got, ok := p90(xs)
	if !ok || got != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90, true", got, ok)
	}
	m := &measurement{setups: []time.Duration{1}, ops: xs[:50], wall: time.Second}
	if _, ok := endToEnd(m)["op_p90_ms"]; ok {
		t.Error("endToEnd reported op_p90_ms from 50 ops")
	}
}

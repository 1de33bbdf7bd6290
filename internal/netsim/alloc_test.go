package netsim

import (
	"runtime"
	"testing"
	"time"

	"bulktx/internal/params"
)

// serveTemplateConfig is the fresh run of bcp-serve's default load
// (perfbench serve-mixed): the single-hop paper grid, dual model, 25
// senders, burst 100, 2 Kbps, 30 s.
func serveTemplateConfig(seed int64) Config {
	cfg := DefaultConfig(ModelDual, 25, 100, seed)
	cfg.Rate = params.HighRate
	cfg.Duration = 30 * time.Second
	return cfg
}

// serveTemplateAllocCeiling and serveTemplateByteCeiling bound the
// serve template's allocations and bytes allocated per build and run.
// The run allocated 4,799 times (1,162,616 B) before receive sessions,
// control messages and burst frames were reused, and 2,870 times
// (751,289 B) before bursts shipped in place from the hop queues, the
// sink's delay record was handed over without a copy, the 802.11 tree
// shared the sensor mesh's adjacency and timers and MAC upcalls stopped
// binding a closure per node. Built with go1.24.0 it allocates 1,748
// times and 568,909 B now, mostly the one-time set-up of the 36 nodes,
// the hop queues (most senders' regrow once, from one burst to two,
// while a handshake is pending) and the sink's delay record, grown by
// append. The byte ceiling leaves
// about 5% for a toolchain's size classes and slice growth: a failure
// just past it after a Go upgrade is more likely a toolchain shift than
// a regression. A -race build allocates about 90 more times (1,834;
// slices.Grow's append of a fresh slice is not optimised away there).
const (
	serveTemplateAllocCeiling = 1900
	serveTemplateByteCeiling  = 600_000
)

// TestServeTemplateRunAllocs holds the serve template's allocations
// and bytes per run under their ceilings, so per-handshake, per-burst
// or per-packet garbage cannot creep back in unnoticed. Both are read
// on one P, as testing.AllocsPerRun does, so no other goroutine's
// garbage lands in the window. The byte count is skipped under -race,
// whose instrumentation allocates too.
func TestServeTemplateRunAllocs(t *testing.T) {
	const runs = 10
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	seed := int64(0)
	run := func() {
		seed++
		if _, err := Run(serveTemplateConfig(seed)); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(runs, run); allocs > serveTemplateAllocCeiling {
		t.Errorf("serve template run allocates %.0f times, ceiling %d", allocs, serveTemplateAllocCeiling)
	}
	if raceEnabled {
		return
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		run()
	}
	runtime.ReadMemStats(&after)
	if bytes := (after.TotalAlloc - before.TotalAlloc) / runs; bytes > serveTemplateByteCeiling {
		t.Errorf("serve template run allocates %d B, ceiling %d", bytes, serveTemplateByteCeiling)
	}
}

// BenchmarkServeTemplateRun builds and runs the serve template, one
// fresh seed per iteration, and reports its allocations.
func BenchmarkServeTemplateRun(b *testing.B) {
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		res, err := Run(serveTemplateConfig(int64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}

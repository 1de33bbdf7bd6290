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
// binding a closure per node, and 1,748 times before a transmitter's
// reception batch took its neighbor row's capacity at its first
// transmission instead of growing from empty. Built with go1.24.0 it
// allocates 1,613 times and about 568,500 B now (the batches sized to
// their rows hold a few KB more than grown ones did), mostly the
// one-time set-up of the 36 nodes, the hop queues (most senders' regrow
// once, from one burst to two, while a handshake is pending) and the
// sink's delay record, grown by append. A -race build allocates about
// 90 more times (1,699; slices.Grow's append of a fresh slice is not
// optimised away there). The ceilings leave about 6% over the -race
// count and the bytes for a toolchain's size classes and slice growth:
// a failure just past one after a Go upgrade is more likely a
// toolchain shift than a regression.
const (
	serveTemplateAllocCeiling = 1800
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

// baselineRunConfig is one of paper-quick's costliest baseline cells:
// the single-hop paper grid under a forwarding model, 35 senders at
// QuickScale's single-hop rate (2 Kbps), 60 s.
func baselineRunConfig(model Model, seed int64) Config {
	cfg := DefaultConfig(model, 35, 1, seed)
	cfg.Rate = params.HighRate
	cfg.Duration = 60 * time.Second
	return cfg
}

// baselineBuildAllowance bounds a baseline run's allocations beyond one
// per generated packet: building the 36 nodes, the routing tree and
// the delay record. Built with go1.24.0, the 35-sender runs generate
// 16,406 packets, each boxed once at its source into its frame payload,
// and allocate 17,353 (sensor) and 17,213 (802.11) times in all, 17,356
// and 17,216 under -race. Before relays passed the received payload on
// and Send returned ErrQueueFull itself, a sensor run allocated 74,345
// times and an 802.11 run 51,536: a box per hop and an error per queue
// overflow.
const baselineBuildAllowance = 1500

// TestBaselineRunAllocs holds the sensor and 802.11 models'
// allocations per run to one per generated packet plus the build
// allowance, so per-hop or per-drop garbage cannot creep back into the
// forwarding path. Allocations are read on one P, as in
// TestServeTemplateRunAllocs.
func TestBaselineRunAllocs(t *testing.T) {
	const runs = 3
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, model := range []Model{ModelSensor, ModelWifi} {
		t.Run(model.String(), func(t *testing.T) {
			var seed int64
			var packets int64
			run := func() {
				seed++
				res, err := Run(baselineRunConfig(model, seed))
				if err != nil {
					t.Fatal(err)
				}
				packets += res.GeneratedBits / params.SensorPayload.Bits()
			}
			allocs := testing.AllocsPerRun(runs, run)
			// AllocsPerRun makes one warm-up call besides the measured runs.
			perRun := float64(packets) / float64(runs+1)
			if ceiling := perRun + baselineBuildAllowance; allocs > ceiling {
				t.Errorf("%v run allocates %.0f times for %.0f generated packets, ceiling %.0f",
					model, allocs, perRun, ceiling)
			}
		})
	}
}

// BenchmarkBaselineRun builds and runs a baseline cell, one fresh seed
// per iteration, and reports its allocations.
func BenchmarkBaselineRun(b *testing.B) {
	for _, model := range []Model{ModelSensor, ModelWifi} {
		b.Run(model.String(), func(b *testing.B) {
			b.ReportAllocs()
			var events uint64
			for i := 0; i < b.N; i++ {
				res, err := Run(baselineRunConfig(model, int64(i+1)))
				if err != nil {
					b.Fatal(err)
				}
				events += res.Events
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

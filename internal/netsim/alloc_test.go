package netsim

import (
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

// serveTemplateAllocCeiling bounds the serve template's allocations per
// build and run. The run allocated 4,799 times before receive
// sessions, control messages and burst frames were reused, MAC and
// agent maps became slices and timers stopped binding closures; it
// allocates 2,932 times now, mostly one-time set-up of the 36 nodes.
const serveTemplateAllocCeiling = 3100

// TestServeTemplateRunAllocs holds the serve template's allocations per
// run under serveTemplateAllocCeiling, so per-handshake or per-burst
// garbage cannot creep back in unnoticed.
func TestServeTemplateRunAllocs(t *testing.T) {
	seed := int64(0)
	allocs := testing.AllocsPerRun(3, func() {
		seed++
		if _, err := Run(serveTemplateConfig(seed)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > serveTemplateAllocCeiling {
		t.Errorf("serve template run allocates %.0f times, ceiling %d", allocs, serveTemplateAllocCeiling)
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

package bulktx_test

import (
	"testing"
	"time"

	"bulktx"
	"bulktx/internal/bench"
	"bulktx/internal/experiments"
	"bulktx/internal/metrics"
	"bulktx/internal/params"
	"bulktx/internal/sim"
)

// benchScale bounds each simulation-figure regeneration to a fraction of
// a second per iteration so testing.B can sample it repeatedly. The
// qualitative shapes survive (see EXPERIMENTS.md for quick- and
// full-scale outputs).
func benchScale() bulktx.ExperimentScale {
	return experiments.Scale{
		Duration: 60 * time.Second,
		Runs:     1,
		BaseSeed: 1,
		Senders:  []int{5, 15},
		Bursts:   []int{10, 100},
		SHRate:   params.HighRate,
		MHRate:   params.HighRate,
	}
}

// benchArtifact measures the regeneration of one paper artifact.
func benchArtifact(b *testing.B, name string) {
	b.Helper()
	scale := benchScale()
	var tbl metrics.Table
	var err error
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl, err = bulktx.RunExperiment(name, scale)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(tbl.Series) == 0 {
		b.Fatalf("%s produced no series", name)
	}
}

// Table 1: radio energy characteristics.
func BenchmarkTable1(b *testing.B) { benchArtifact(b, "table1") }

// Figure 1: single-hop energy vs data size (analytic).
func BenchmarkFig1(b *testing.B) { benchArtifact(b, "fig1") }

// Figure 2: break-even size vs idle time (analytic).
func BenchmarkFig2(b *testing.B) { benchArtifact(b, "fig2") }

// Figure 3: break-even size vs forward progress (analytic).
func BenchmarkFig3(b *testing.B) { benchArtifact(b, "fig3") }

// Figure 4: burst-size energy savings (analytic).
func BenchmarkFig4(b *testing.B) { benchArtifact(b, "fig4") }

// Figure 5: single-hop goodput vs senders (simulation).
func BenchmarkFig5(b *testing.B) { benchArtifact(b, "fig5") }

// Figure 6: single-hop normalized energy vs senders (simulation).
func BenchmarkFig6(b *testing.B) { benchArtifact(b, "fig6") }

// Figure 7: single-hop energy vs delay trade-off (simulation).
func BenchmarkFig7(b *testing.B) { benchArtifact(b, "fig7") }

// Figure 8: multi-hop goodput vs senders (simulation).
func BenchmarkFig8(b *testing.B) { benchArtifact(b, "fig8") }

// Figure 9: multi-hop normalized energy vs senders (simulation).
func BenchmarkFig9(b *testing.B) { benchArtifact(b, "fig9") }

// Figure 10: multi-hop energy vs delay trade-off (simulation).
func BenchmarkFig10(b *testing.B) { benchArtifact(b, "fig10") }

// Figure 11: prototype energy per packet vs threshold (Section 4.2).
func BenchmarkFig11(b *testing.B) { benchArtifact(b, "fig11") }

// Figure 12: prototype energy per packet vs delay (Section 4.2).
func BenchmarkFig12(b *testing.B) { benchArtifact(b, "fig12") }

// Ablations (DESIGN.md Section 6).
func BenchmarkAblationShortcut(b *testing.B) { benchArtifact(b, "ablation-shortcut") }
func BenchmarkAblationLinger(b *testing.B)   { benchArtifact(b, "ablation-linger") }
func BenchmarkAblationMinGrant(b *testing.B) { benchArtifact(b, "ablation-mingrant") }
func BenchmarkAblationLoss(b *testing.B)     { benchArtifact(b, "ablation-loss") }

// BenchmarkSimulationThroughput measures raw simulator speed: events per
// second on one dual-radio run (15 senders, burst 100, 2 Kbps). The body
// lives in internal/bench, shared with cmd/bcp-bench's JSON baselines.
func BenchmarkSimulationThroughput(b *testing.B) { bench.SimulationThroughput(b) }

// BenchmarkBreakEvenSolve measures one discrete break-even search.
func BenchmarkBreakEvenSolve(b *testing.B) {
	micaz, err := bulktx.RadioByName("Micaz")
	if err != nil {
		b.Fatal(err)
	}
	lucent, err := bulktx.RadioByName("Lucent (11Mbps)")
	if err != nil {
		b.Fatal(err)
	}
	m, err := bulktx.NewBreakEvenModel(micaz, lucent)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.BreakEven(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrototypeRun measures one 500-message prototype transfer
// under BCP.
func BenchmarkPrototypeRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := bulktx.NewPrototypeConfig(bulktx.ModelDual, 2000, 500, 100*time.Millisecond)
		cfg.Seed = int64(i + 1)
		if _, err := bulktx.RunSimulation(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// nopEvent is a capture-free callback for the zero-allocation check: a
// top-level func converts to a func value without heap allocation.
func nopEvent() {}

// TestSchedulerHotPathZeroAllocs pins the scheduler's allocation-free
// hot-path contract: once the heap, slot table and free list are warm,
// a steady schedule/cancel/drain cycle must not allocate at all. If the
// event core regains a per-event allocation, every large sweep pays it
// millions of times.
func TestSchedulerHotPathZeroAllocs(t *testing.T) {
	t.Run("heap", func(t *testing.T) {
		s := sim.NewScheduler(1)
		// Warm the backing arrays far past what the measured loop needs:
		// heap, slot table and free list all reach steady-state capacity
		// here.
		for i := 0; i < 10000; i++ {
			s.After(time.Duration(i%997)*time.Microsecond, nopEvent)
		}
		s.Run()
		avg := testing.AllocsPerRun(1000, func() {
			for i := 0; i < 8; i++ {
				id := s.After(time.Duration(1+i%5)*time.Microsecond, nopEvent)
				if i%3 == 0 {
					s.Cancel(id)
				}
			}
			s.Run()
		})
		if avg != 0 {
			t.Errorf("warm schedule/cancel/drain cycle allocates %.2f times per run, want 0", avg)
		}
	})
}

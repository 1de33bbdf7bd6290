package experiments

import (
	"slices"
	"strings"
	"testing"
	"time"

	"bulktx/internal/metrics"
	"bulktx/internal/netsim"
	"bulktx/internal/params"
	"bulktx/internal/sweep"
)

// tinyScale keeps simulation experiments to fractions of a second.
func tinyScale() Scale {
	return Scale{
		Duration: 120 * time.Second,
		Runs:     2,
		BaseSeed: 1,
		Senders:  []int{5, 15},
		Bursts:   []int{10, 100},
		SHRate:   params.HighRate,
		MHRate:   params.HighRate,
	}
}

func TestRegistryComplete(t *testing.T) {
	// Every paper artifact must be regenerable: Table 1 and Figures 1-12.
	want := []string{
		"table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
		"fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
	}
	for _, name := range want {
		if _, ok := lookup(name); !ok {
			t.Errorf("registry missing paper artifact %q", name)
		}
	}
	names := Names()
	if !slices.IsSorted(names) || len(slices.Compact(slices.Clone(names))) != len(registry) {
		t.Errorf("Names() = %v, want the %d registry names sorted and unique", names, len(registry))
	}
	for _, name := range names {
		if Describe(name) == "" {
			t.Errorf("%s has no description", name)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("fig99", tinyScale()); err == nil {
		t.Error("unknown experiment did not error")
	}
}

func TestTable1Artifact(t *testing.T) {
	tbl := Table1()
	if !strings.Contains(tbl.Title, "Table 1") {
		t.Errorf("title %q", tbl.Title)
	}
	if len(tbl.Series) != 5 {
		t.Fatalf("series = %d, want 5 columns", len(tbl.Series))
	}
	for _, s := range tbl.Series {
		if len(s.X) != 6 {
			t.Errorf("series %s has %d rows, want 6 radios", s.Label, len(s.X))
		}
	}
	out := tbl.Render()
	for _, want := range []string{"1400", "59.1", "1.328"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing Table 1 value %s", want)
		}
	}
}

func TestAnalyticFigures(t *testing.T) {
	tests := []struct {
		name   string
		run    func() (metrics.Table, error)
		series int
	}{
		{"fig1", Fig1, 6},
		{"fig2", Fig2, 7},
		{"fig3", Fig3, 6},
		{"fig4", Fig4, 6},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			tbl, err := tt.run()
			if err != nil {
				t.Fatal(err)
			}
			if len(tbl.Series) != tt.series {
				t.Errorf("series = %d, want %d", len(tbl.Series), tt.series)
			}
			for _, s := range tbl.Series {
				if len(s.X) == 0 && tt.name != "fig3" {
					t.Errorf("series %s empty", s.Label)
				}
				if len(s.X) != len(s.Y) {
					t.Errorf("series %s x/y mismatch", s.Label)
				}
			}
		})
	}
}

func TestFig3InfeasibleCurvesStartLate(t *testing.T) {
	tbl, err := Fig3()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range tbl.Series {
		if !strings.Contains(s.Label, "Micaz") {
			continue
		}
		// Micaz combos are infeasible at fp=1-2: their curves must not
		// include those points.
		for _, x := range s.X {
			if x < 3 {
				t.Errorf("%s has a point at fp=%v, should start at >= 3", s.Label, x)
			}
		}
		if len(s.X) == 0 {
			t.Errorf("%s has no feasible points at all", s.Label)
		}
	}
}

func TestFig4SavingsWithinUnitInterval(t *testing.T) {
	tbl, err := Fig4()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range tbl.Series {
		for i, y := range s.Y {
			if y.Mean < 0 || y.Mean >= 1 {
				t.Errorf("%s point %d savings %v outside [0,1)", s.Label, i, y.Mean)
			}
		}
	}
}

func TestSimulationFigures(t *testing.T) {
	sc := tinyScale()
	tests := []struct {
		name   string
		run    Runner
		series int
	}{
		{"fig5", Fig5, 4}, // 2 bursts + Sensor + 802.11
		{"fig6", Fig6, 4}, // 2 bursts + Sensor-ideal + Sensor-header
		{"fig7", Fig7, 2}, // one per sender count
		{"fig8", Fig8, 4},
		{"fig9", Fig9, 4},
		{"fig10", Fig10, 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			tbl, err := tt.run(sc)
			if err != nil {
				t.Fatal(err)
			}
			if len(tbl.Series) != tt.series {
				t.Errorf("series = %d, want %d", len(tbl.Series), tt.series)
			}
			for _, s := range tbl.Series {
				if len(s.X) == 0 || len(s.X) != len(s.Y) {
					t.Errorf("series %s malformed (%d x, %d y)", s.Label, len(s.X), len(s.Y))
				}
			}
		})
	}
}

func TestGoodputFigureValuesAreRatios(t *testing.T) {
	tbl, err := Fig5(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range tbl.Series {
		for i, y := range s.Y {
			if y.Mean < 0 || y.Mean > 1.0001 {
				t.Errorf("%s point %d goodput %v outside [0,1]", s.Label, i, y.Mean)
			}
		}
	}
}

func TestAblations(t *testing.T) {
	sc := tinyScale()
	for _, name := range []string{
		"ablation-shortcut", "ablation-linger", "ablation-mingrant", "ablation-loss",
		"ablation-adaptive", "ablation-delaybound", "ablation-topology",
		"ablation-churn",
	} {
		t.Run(name, func(t *testing.T) {
			tbl, err := Run(name, sc)
			if err != nil {
				t.Fatal(err)
			}
			if len(tbl.Series) == 0 {
				t.Error("no series")
			}
		})
	}
}

func TestCaseString(t *testing.T) {
	if SingleHop.String() != "SH" || MultiHop.String() != "MH" {
		t.Error("case names wrong")
	}
}

// TestFiguresShareCells runs each case's figures on a fresh engine: the
// goodput figure simulates the dual grid and both baselines, and the
// energy and delay figures add no cache entry. Those cells are exactly
// the jobs a sweep.Spec over the same axes compiles, so a cache that
// bcp-sweep filled serves the figures too.
func TestFiguresShareCells(t *testing.T) {
	old := engine
	defer func() { engine = old }()
	sc := tinyScale()
	for _, tc := range []struct {
		c     Case
		first Runner
		rest  []Runner
	}{
		{SingleHop, Fig5, []Runner{Fig6, Fig7}},
		{MultiHop, Fig8, []Runner{Fig9, Fig10}},
	} {
		cache := sweep.NewCache()
		ConfigureEngine(2, cache)
		if _, err := tc.first(sc); err != nil {
			t.Fatal(err)
		}
		entries := cache.Stats().Entries
		for _, fig := range tc.rest {
			if _, err := fig(sc); err != nil {
				t.Fatal(err)
			}
			if n := cache.Stats().Entries; n != entries {
				t.Errorf("%v: a sibling figure grew the cache from %d to %d entries", tc.c, entries, n)
			}
		}
		base := sc.baseConfig(tc.c, netsim.ModelDual, sc.Senders[0], sc.Bursts[0])
		var jobs []sweep.Job
		for _, spec := range []sweep.Spec{
			{Base: base, Senders: sc.Senders, Bursts: sc.Bursts, Runs: sc.Runs, BaseSeed: sc.BaseSeed},
			{Base: base, Models: []netsim.Model{netsim.ModelSensor, netsim.ModelWifi},
				Senders: sc.Senders, Runs: sc.Runs, BaseSeed: sc.BaseSeed},
		} {
			js, err := spec.Jobs()
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, js...)
		}
		if entries != len(jobs) {
			t.Errorf("%v: figures simulated %d cells, the spec grid has %d", tc.c, entries, len(jobs))
		}
		for _, job := range jobs {
			key, err := sweep.Key(job.Config)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := cache.Get(key); !ok {
				t.Errorf("%v: spec cell %v rep %d not among the figures' cells", tc.c, job.Point, job.Rep)
			}
		}
	}
}

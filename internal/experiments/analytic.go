// Package experiments regenerates every table and figure of the paper's
// evaluation. Each runner returns a metrics.Table whose series mirror the
// paper's curves; cmd/bcp-experiments prints them and bench_test.go
// measures their regeneration cost.
//
// Analytic artifacts (Table 1, Figures 1-4) come from internal/analysis.
// Every simulated artifact (Figures 5-10, the prototype Figures 11-12
// and the ablations) builds a list of curves, each a list of
// netsim.Config, and runs it through one helper, Scale.grid, as a
// single batch on the shared sweep engine; the runner only maps the
// summarized cells to series. The prototype configs are
// netsim.PrototypeConfig's finite transfers, charged by the radios'
// meters (a replay test checks that a traced run's state transitions
// reproduce those meters). testdata/<name>.golden pins every simulated
// table at a tiny scale.
package experiments

import (
	"fmt"
	"time"

	"bulktx/internal/analysis"
	"bulktx/internal/energy"
	"bulktx/internal/metrics"
	"bulktx/internal/params"
	"bulktx/internal/units"
)

// point wraps a single no-uncertainty value as a summary.
func point(v float64) metrics.Summary {
	return metrics.Summary{Mean: v, N: 1}
}

// Table1 reproduces the paper's Table 1 (radio energy characteristics).
func Table1() metrics.Table {
	tbl := metrics.Table{
		Title:  "Table 1: Energy characteristics (mW, mJ)",
		XLabel: "radio#",
		YLabel: "rate Mbps | Ptx mW | Prx mW | Pi mW | Ewakeup mJ",
		Series: []metrics.Series{
			{Label: "rate(Mbps)"}, {Label: "Ptx(mW)"}, {Label: "Prx(mW)"},
			{Label: "Pi(mW)"}, {Label: "Ewakeup(mJ)"},
		},
	}
	for i, p := range energy.Table1() {
		x := float64(i + 1)
		vals := []float64{
			p.Rate.BitsPerSecond() / 1e6,
			p.Tx.Milliwatts(),
			p.Rx.Milliwatts(),
			p.Idle.Milliwatts(),
			p.Wakeup.Millijoules(),
		}
		for s := range tbl.Series {
			tbl.Series[s].X = append(tbl.Series[s].X, x)
			tbl.Series[s].Y = append(tbl.Series[s].Y, point(vals[s]))
		}
	}
	return tbl
}

// fig1Sizes is the paper's 0.1-10 KB log-spaced x axis.
func fig1Sizes() []units.ByteSize {
	var out []units.ByteSize
	for kb := 0.1; kb <= 10.01; kb *= 1.25 {
		out = append(out, units.ByteSize(kb*1024))
	}
	return out
}

// Fig1 reproduces Figure 1: single-hop energy consumption vs data size
// for the three sensor radios alone and the three 802.11+Micaz duals.
func Fig1() (metrics.Table, error) {
	tbl := metrics.Table{
		Title:  "Figure 1: Energy consumption vs data size (single hop, E_idle=0)",
		XLabel: "data(KB)",
		YLabel: "energy (mJ)",
	}
	sizes := fig1Sizes()

	for _, low := range energy.LowPowerProfiles() {
		m, err := analysis.NewModel(low, energy.Lucent11())
		if err != nil {
			return tbl, err
		}
		s := metrics.Series{Label: low.Name}
		for _, size := range sizes {
			s.X = append(s.X, size.Kilobytes())
			s.Y = append(s.Y, point(m.SensorEnergy(size).Millijoules()))
		}
		tbl.Series = append(tbl.Series, s)
	}
	for _, high := range energy.HighPowerProfiles() {
		m, err := analysis.NewModel(energy.Micaz(), high)
		if err != nil {
			return tbl, err
		}
		s := metrics.Series{Label: high.Name + "-Micaz"}
		for _, size := range sizes {
			s.X = append(s.X, size.Kilobytes())
			s.Y = append(s.Y, point(m.WifiEnergy(size).Millijoules()))
		}
		tbl.Series = append(tbl.Series, s)
	}
	return tbl, nil
}

// fig2Combos are the feasible dual combinations plotted in Figure 2.
func fig2Combos() [][2]energy.Profile {
	return [][2]energy.Profile{
		{energy.Mica(), energy.Cabletron()},
		{energy.Mica2(), energy.Cabletron()},
		{energy.Mica(), energy.Lucent2()},
		{energy.Mica2(), energy.Lucent2()},
		{energy.Mica(), energy.Lucent11()},
		{energy.Mica2(), energy.Lucent11()},
		{energy.Micaz(), energy.Lucent11()},
	}
}

// Fig2 reproduces Figure 2: break-even size vs total idle time.
func Fig2() (metrics.Table, error) {
	tbl := metrics.Table{
		Title:  "Figure 2: Break-even data size vs idle time",
		XLabel: "idle(s)",
		YLabel: "s* (KB)",
	}
	var idles []time.Duration
	for ms := 1.0; ms <= 10000.1; ms *= 2 {
		idles = append(idles, time.Duration(ms*float64(time.Millisecond)))
	}
	for _, combo := range fig2Combos() {
		low, high := combo[0], combo[1]
		s := metrics.Series{Label: fmt.Sprintf("%s-%s", high.Name, low.Name)}
		for _, idle := range idles {
			m, err := analysis.NewModel(low, high, analysis.WithIdleTime(idle))
			if err != nil {
				return tbl, err
			}
			se, err := m.BreakEven()
			if err != nil {
				return tbl, err
			}
			s.X = append(s.X, idle.Seconds())
			s.Y = append(s.Y, point(se.Kilobytes()))
		}
		tbl.Series = append(tbl.Series, s)
	}
	return tbl, nil
}

// Fig3 reproduces Figure 3: break-even size vs forward progress for the
// 2 Mbps radios against all three sensor radios.
func Fig3() (metrics.Table, error) {
	tbl := metrics.Table{
		Title:  "Figure 3: Break-even data size vs forward progress",
		XLabel: "fp(hops)",
		YLabel: "s* (KB)",
	}
	lows := energy.LowPowerProfiles()
	highs := []energy.Profile{energy.Cabletron(), energy.Lucent2()}
	for _, high := range highs {
		for _, low := range lows {
			m, err := analysis.NewModel(low, high)
			if err != nil {
				return tbl, err
			}
			s := metrics.Series{Label: fmt.Sprintf("%s-%s", high.Name, low.Name)}
			for fp := 1; fp <= 6; fp++ {
				se, err := m.BreakEvenMH(fp)
				if err != nil {
					continue // infeasible at this fp: the paper's curves start later
				}
				s.X = append(s.X, float64(fp))
				s.Y = append(s.Y, point(se.Kilobytes()))
			}
			tbl.Series = append(tbl.Series, s)
		}
	}
	return tbl, nil
}

// Fig4 reproduces Figure 4: fraction of energy saved by sending n
// packets in one burst vs n single-packet wake-ups, with and without a
// 100 ms post-burst idle.
func Fig4() (metrics.Table, error) {
	tbl := metrics.Table{
		Title:  "Figure 4: Energy savings vs burst size",
		XLabel: "packets",
		YLabel: "fraction of energy saved",
	}
	var ns []int
	for n := 1; n <= 1000; n *= 2 {
		ns = append(ns, n)
	}
	ns = append(ns, 1000)
	for _, variant := range []struct {
		suffix string
		idle   time.Duration
	}{
		{"", 0},
		{"-Idle", params.PostBurstIdle},
	} {
		for _, high := range energy.HighPowerProfiles() {
			m, err := analysis.NewModel(energy.Micaz(), high,
				analysis.WithIdleTime(variant.idle))
			if err != nil {
				return tbl, err
			}
			s := metrics.Series{Label: high.Name + variant.suffix}
			for _, n := range ns {
				sav, err := m.BurstSavings(n)
				if err != nil {
					return tbl, err
				}
				s.X = append(s.X, float64(n))
				s.Y = append(s.Y, point(sav))
			}
			tbl.Series = append(tbl.Series, s)
		}
	}
	return tbl, nil
}

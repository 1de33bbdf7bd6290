package experiments

import (
	"fmt"
	"time"

	"bulktx/internal/metrics"
	"bulktx/internal/netsim"
	"bulktx/internal/params"
	"bulktx/internal/units"
)

// Scale trades fidelity for wall-clock time. Full reproduces the paper's
// exact scenario; Quick preserves every qualitative shape at a fraction
// of the cost (validated against Full in EXPERIMENTS.md).
type Scale struct {
	// Duration is the simulated run length.
	Duration time.Duration
	// Runs is the number of seeded repetitions per point.
	Runs int
	// BaseSeed seeds the repetitions (seed, seed+1, ...).
	BaseSeed int64
	// Senders are the swept sender counts.
	Senders []int
	// Bursts are the swept alpha-s* thresholds (sensor packets).
	Bursts []int
	// SHRate and MHRate are the per-sender rates for the single-hop and
	// multi-hop scenarios.
	SHRate, MHRate units.BitRate
}

// FullScale is the paper's configuration: 5000 s, 20 runs, 0.2 Kbps
// single-hop and 2 Kbps multi-hop, bursts 10-2500.
func FullScale() Scale {
	return Scale{
		Duration: params.SimDuration,
		Runs:     params.Runs,
		BaseSeed: 1,
		Senders:  []int{5, 10, 15, 20, 25, 30, 35},
		Bursts:   params.BurstSizes(),
		SHRate:   params.LowRate,
		MHRate:   params.HighRate,
	}
}

// QuickScale shrinks runs to seconds of wall-clock: 600 s simulated,
// 3 runs, 2 Kbps everywhere (so every burst size fires within the run),
// bursts 10-1000.
func QuickScale() Scale {
	return Scale{
		Duration: 600 * time.Second,
		Runs:     3,
		BaseSeed: 1,
		Senders:  []int{5, 15, 25, 35},
		Bursts:   []int{10, 100, 500, 1000},
		SHRate:   params.HighRate,
		MHRate:   params.HighRate,
	}
}

// Case selects the radio scenario of Section 4.1.
type Case int

// Simulation cases.
const (
	// SingleHop is Lucent 11 Mbps with sensor-equal range.
	SingleHop Case = iota + 1
	// MultiHop is Cabletron reaching the sink in one hop.
	MultiHop
)

// String names the case.
func (c Case) String() string {
	if c == MultiHop {
		return "MH"
	}
	return "SH"
}

// baseConfig builds the scenario config for a case.
func (s Scale) baseConfig(c Case, model netsim.Model, senders, burst int) netsim.Config {
	var cfg netsim.Config
	if c == MultiHop {
		cfg = netsim.MultiHopConfig(senders, burst, s.BaseSeed)
		cfg.Rate = s.MHRate
	} else {
		cfg = netsim.DefaultConfig(model, senders, burst, s.BaseSeed)
		cfg.Rate = s.SHRate
	}
	cfg.Model = model
	cfg.Duration = s.Duration
	if model != netsim.ModelDual {
		cfg.BurstPackets = 1 // unused but validated
	}
	return cfg
}

// senderCurve is one curve over the scale's sender counts: the case's
// scenario under a model at a burst size.
func (s Scale) senderCurve(c Case, model netsim.Model, burst int) []netsim.Config {
	curve := make([]netsim.Config, len(s.Senders))
	for i, n := range s.Senders {
		curve[i] = s.baseConfig(c, model, n, burst)
	}
	return curve
}

// senderXs are the scale's sender counts as x positions.
func (s Scale) senderXs() []float64 {
	xs := make([]float64, len(s.Senders))
	for i, n := range s.Senders {
		xs[i] = float64(n)
	}
	return xs
}

// dualCurves are a figure's dual-radio curves over the sender counts,
// one per burst size, followed by one curve per baseline model.
func (s Scale) dualCurves(c Case, baselines ...netsim.Model) [][]netsim.Config {
	var curves [][]netsim.Config
	for _, burst := range s.Bursts {
		curves = append(curves, s.senderCurve(c, netsim.ModelDual, burst))
	}
	for _, model := range baselines {
		curves = append(curves, s.senderCurve(c, model, 0))
	}
	return curves
}

// dualLabels label the dual-radio curves, one per burst size.
func (s Scale) dualLabels() []string {
	labels := make([]string, len(s.Bursts))
	for i, burst := range s.Bursts {
		labels[i] = fmt.Sprintf("DualRadio-%d", burst)
	}
	return labels
}

// goodputFigure builds Figures 5 (SH) and 8 (MH).
func (s Scale) goodputFigure(c Case, title string) (metrics.Table, error) {
	tbl := metrics.Table{
		Title:  title,
		XLabel: "senders",
		YLabel: "goodput",
	}
	labels := append(s.dualLabels(), "Sensor", "802.11")
	return s.plot(tbl, labels, s.senderXs(), goodput, s.dualCurves(c, netsim.ModelSensor, netsim.ModelWifi)...)
}

// energyFigure builds Figures 6 (SH) and 9 (MH): the dual-radio curves,
// then the sensor baseline with and without its overhearing charge.
func (s Scale) energyFigure(c Case, title string) (metrics.Table, error) {
	tbl := metrics.Table{
		Title:  title,
		XLabel: "senders",
		YLabel: "normalized energy (J/Kbit)",
	}
	cells, err := s.grid(s.dualCurves(c, netsim.ModelSensor)...)
	if err != nil {
		return tbl, err
	}
	for i, label := range s.dualLabels() {
		tbl.Series = append(tbl.Series, series(label, s.senderXs(), cells[i], normEnergy))
	}
	sensor := cells[len(s.Bursts)]
	tbl.Series = append(tbl.Series,
		series("Sensor-ideal", s.senderXs(), sensor, idealEnergy),
		series("Sensor-header", s.senderXs(), sensor, normEnergy))
	return tbl, nil
}

// delayFigure builds Figures 7 (SH) and 10 (MH): normalized energy vs
// mean delay, one series per sender count, one point per burst size.
func (s Scale) delayFigure(c Case, title string) (metrics.Table, error) {
	rate := s.SHRate
	if c == MultiHop {
		rate = s.MHRate
	}
	tbl := metrics.Table{
		Title:  title,
		XLabel: "delay(s)",
		YLabel: "normalized energy (J/Kbit)",
	}
	cells, err := s.grid(s.dualCurves(c)...)
	if err != nil {
		return tbl, err
	}
	for i, n := range s.Senders {
		line := metrics.Series{
			Label: fmt.Sprintf("%.1fKbps-%d", rate.BitsPerSecond()/1000, n),
		}
		for _, burst := range cells {
			line.X = append(line.X, burst[i].MeanDelay.Seconds())
			line.Y = append(line.Y, burst[i].NormEnergy)
		}
		tbl.Series = append(tbl.Series, line)
	}
	return tbl, nil
}

// Fig5 reproduces Figure 5: single-hop goodput vs number of senders.
func Fig5(s Scale) (metrics.Table, error) {
	return s.goodputFigure(SingleHop, "Figure 5: SH goodput vs senders")
}

// Fig6 reproduces Figure 6: single-hop normalized energy vs senders.
func Fig6(s Scale) (metrics.Table, error) {
	return s.energyFigure(SingleHop, "Figure 6: SH normalized energy vs senders")
}

// Fig7 reproduces Figure 7: single-hop normalized energy vs delay.
func Fig7(s Scale) (metrics.Table, error) {
	return s.delayFigure(SingleHop, "Figure 7: SH normalized energy vs delay")
}

// Fig8 reproduces Figure 8: multi-hop goodput vs senders.
func Fig8(s Scale) (metrics.Table, error) {
	return s.goodputFigure(MultiHop, "Figure 8: MH goodput vs senders")
}

// Fig9 reproduces Figure 9: multi-hop normalized energy vs senders.
func Fig9(s Scale) (metrics.Table, error) {
	return s.energyFigure(MultiHop, "Figure 9: MH normalized energy vs senders")
}

// Fig10 reproduces Figure 10: multi-hop normalized energy vs delay.
func Fig10(s Scale) (metrics.Table, error) {
	return s.delayFigure(MultiHop, "Figure 10: MH normalized energy vs delay")
}

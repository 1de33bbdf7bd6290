package experiments

import (
	"time"

	"bulktx/internal/metrics"
	"bulktx/internal/netsim"
	"bulktx/internal/units"
)

// The paper's prototype runs: 500 messages, one every 100 ms.
const (
	prototypeMessages = 500
	prototypeInterval = 100 * time.Millisecond
)

// prototypeThresholds sweeps alpha-s* over the paper's 500-5000 B range
// in 250 B steps (fine enough to expose the packet-quantization teeth).
func prototypeThresholds() []units.ByteSize {
	var out []units.ByteSize
	for th := units.ByteSize(500); th <= 5000; th += 250 {
		out = append(out, th)
	}
	return out
}

// prototypeRuns simulates Figures 11-12's transfers as one batch on the
// shared engine: the dual model at every threshold, then the sensor
// baseline. The baseline's config does not depend on the threshold, so
// the batch is one cell longer than the sweep, and whichever figure
// runs second finds every cell cached.
func prototypeRuns() (dual []netsim.Result, sensor netsim.Result, err error) {
	ths := prototypeThresholds()
	cfgs := make([]netsim.Config, 0, len(ths)+1)
	for _, th := range ths {
		cfgs = append(cfgs, netsim.PrototypeConfig(netsim.ModelDual, th, prototypeMessages, prototypeInterval))
	}
	cfgs = append(cfgs, netsim.PrototypeConfig(netsim.ModelSensor, 0, prototypeMessages, prototypeInterval))
	groups, err := engine.Grid(cfgs, 1, cfgs[0].Seed)
	if err != nil {
		return nil, netsim.Result{}, err
	}
	for _, g := range groups[:len(ths)] {
		dual = append(dual, g[0])
	}
	return dual, groups[len(ths)][0], nil
}

// Fig11 reproduces Figure 11: prototype energy per packet vs threshold
// for the dual-radio scheme against the flat sensor-radio baseline.
func Fig11() (metrics.Table, error) {
	tbl := metrics.Table{
		Title:  "Figure 11: Prototype energy per packet vs threshold (alpha-s*)",
		XLabel: "threshold(B)",
		YLabel: "energy per packet (uJ)",
	}
	dualRuns, sensorRun, err := prototypeRuns()
	if err != nil {
		return tbl, err
	}
	dual := metrics.Series{Label: "Dual-Radio"}
	sensor := metrics.Series{Label: "Sensor Radio"}
	baseline := point(sensorRun.EnergyPerPacket().Microjoules())
	for i, th := range prototypeThresholds() {
		x := float64(th)
		dual.X = append(dual.X, x)
		dual.Y = append(dual.Y, point(dualRuns[i].EnergyPerPacket().Microjoules()))
		sensor.X = append(sensor.X, x)
		sensor.Y = append(sensor.Y, baseline)
	}
	tbl.Series = append(tbl.Series, dual, sensor)
	return tbl, nil
}

// Fig12 reproduces Figure 12: prototype energy per packet vs delay per
// packet (parametric in the threshold).
func Fig12() (metrics.Table, error) {
	tbl := metrics.Table{
		Title:  "Figure 12: Prototype energy per packet vs delay per packet",
		XLabel: "delay(ms)",
		YLabel: "energy per packet (uJ)",
	}
	dualRuns, _, err := prototypeRuns()
	if err != nil {
		return tbl, err
	}
	series := metrics.Series{Label: "Dual-Radio"}
	for _, res := range dualRuns {
		series.X = append(series.X, float64(res.MeanDelay().Milliseconds()))
		series.Y = append(series.Y, point(res.EnergyPerPacket().Microjoules()))
	}
	tbl.Series = append(tbl.Series, series)
	return tbl, nil
}

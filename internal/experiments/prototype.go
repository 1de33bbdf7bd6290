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

// prototypeCells simulates Figures 11-12's transfers as one batch on
// the shared engine: one run of the dual model at every threshold, and
// one of the sensor baseline. The baseline's config does not depend on
// the threshold, so the batch is one cell longer than the sweep, and
// whichever figure runs second finds every cell cached.
func prototypeCells() (dual []cell, sensor cell, err error) {
	var curve []netsim.Config
	for _, th := range prototypeThresholds() {
		curve = append(curve, netsim.PrototypeConfig(netsim.ModelDual, th, prototypeMessages, prototypeInterval))
	}
	base := netsim.PrototypeConfig(netsim.ModelSensor, 0, prototypeMessages, prototypeInterval)
	cells, err := Scale{Runs: 1, BaseSeed: base.Seed}.grid(curve, []netsim.Config{base})
	if err != nil {
		return nil, cell{}, err
	}
	return cells[0], cells[1][0], nil
}

// Fig11 reproduces Figure 11: prototype energy per packet vs threshold
// for the dual-radio scheme against the flat sensor-radio baseline.
func Fig11() (metrics.Table, error) {
	tbl := metrics.Table{
		Title:  "Figure 11: Prototype energy per packet vs threshold (alpha-s*)",
		XLabel: "threshold(B)",
		YLabel: "energy per packet (uJ)",
	}
	dual, sensor, err := prototypeCells()
	if err != nil {
		return tbl, err
	}
	var xs []float64
	for _, th := range prototypeThresholds() {
		xs = append(xs, float64(th))
	}
	flat := metrics.Series{Label: "Sensor Radio", X: xs}
	for range xs {
		flat.Y = append(flat.Y, sensor.PerPacket)
	}
	perPacket := func(c cell) metrics.Summary { return c.PerPacket }
	tbl.Series = []metrics.Series{series("Dual-Radio", xs, dual, perPacket), flat}
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
	dual, _, err := prototypeCells()
	if err != nil {
		return tbl, err
	}
	line := metrics.Series{Label: "Dual-Radio"}
	for _, c := range dual {
		line.X = append(line.X, float64(c.MeanDelay.Milliseconds()))
		line.Y = append(line.Y, c.PerPacket)
	}
	tbl.Series = append(tbl.Series, line)
	return tbl, nil
}

package experiments

import (
	"slices"

	"bulktx/internal/metrics"
	"bulktx/internal/netsim"
	"bulktx/internal/sweep"
)

// engine is the shared sweep executor behind every simulation figure
// and ablation: one process-wide worker pool plus a result cache.
// Figures that share grid cells (fig5/fig6/fig7 share every single-hop
// dual cell, fig8/fig9/fig10 every multi-hop one) only simulate each
// cell once per process; the pool spreads the remaining cells over all
// cores.
var engine = &sweep.Pool{Cache: sweep.NewCache()}

// ConfigureEngine replaces the shared executor's concurrency limit
// (workers < 1 keeps runtime.NumCPU) and cache (nil selects a fresh
// in-memory cache; pass a sweep.NewDiskCache to persist results across
// processes). Call it before running experiments, not concurrently
// with them.
func ConfigureEngine(workers int, cache *sweep.Cache) {
	if cache == nil {
		cache = sweep.NewCache()
	}
	engine = &sweep.Pool{Workers: workers, Cache: cache}
}

// cell is one config of a grid with its seeded runs reduced to the
// paper's metrics, plus the prototype figures' energy per delivered
// packet in µJ. A cell is addressed by its curve and position, so its
// Point is left zero.
type cell struct {
	sweep.CellSummary
	PerPacket metrics.Summary
}

// grid is the experiments' one way to run a grid. It runs every config
// of every curve, each with the scale's seeded repetitions, as one
// batch on the shared engine, and returns one cell per config, curve by
// curve. A config's cache key is its content, so a cell shared between
// figures is simulated once per engine.
func (s Scale) grid(curves ...[]netsim.Config) ([][]cell, error) {
	cfgs := slices.Concat(curves...)
	groups, err := engine.Grid(cfgs, s.Runs, s.BaseSeed)
	if err != nil {
		return nil, err
	}
	cells := make([]cell, len(cfgs))
	for i, runs := range groups {
		g, e, ie, d := netsim.Summaries(runs)
		perPacket := make([]float64, len(runs))
		for j, r := range runs {
			perPacket[j] = r.EnergyPerPacket().Microjoules()
		}
		cells[i] = cell{
			CellSummary: sweep.CellSummary{Runs: len(runs), Goodput: g, NormEnergy: e, IdealEnergy: ie, MeanDelay: d},
			PerPacket:   metrics.Summarize(perPacket),
		}
	}
	out := make([][]cell, len(curves))
	for i, curve := range curves {
		out[i], cells = cells[:len(curve)], cells[len(curve):]
	}
	return out, nil
}

// plot runs the curves as one grid and appends one series per curve to
// tbl: curve i is labelled labels[i], sits at x positions xs and reads
// metric from each cell.
func (s Scale) plot(tbl metrics.Table, labels []string, xs []float64, metric func(cell) metrics.Summary, curves ...[]netsim.Config) (metrics.Table, error) {
	cells, err := s.grid(curves...)
	if err != nil {
		return tbl, err
	}
	for i, label := range labels {
		tbl.Series = append(tbl.Series, series(label, xs, cells[i], metric))
	}
	return tbl, nil
}

// series labels one curve's cells as a series at x positions xs,
// reading each y with metric.
func series(label string, xs []float64, cells []cell, metric func(cell) metrics.Summary) metrics.Series {
	s := metrics.Series{Label: label, X: slices.Clone(xs)}
	for _, c := range cells {
		s.Y = append(s.Y, metric(c))
	}
	return s
}

// The metrics a series reads from a cell.
func goodput(c cell) metrics.Summary     { return c.Goodput }
func normEnergy(c cell) metrics.Summary  { return c.NormEnergy }
func idealEnergy(c cell) metrics.Summary { return c.IdealEnergy }

package sweep

import (
	"fmt"
	"time"

	"bulktx/internal/metrics"
	"bulktx/internal/netsim"
)

// Outcome is an executed sweep: the job list and one result per job,
// plus how many jobs resolved without simulating.
type Outcome struct {
	// Jobs is the executed job list in spec order.
	Jobs []Job
	// Results holds one result per job, index-aligned with Jobs. The
	// entry of a quarantined job (see Errors) is the zero Result and is
	// excluded from grouping and summaries.
	Results []netsim.Result
	// Cached counts the jobs served without simulating: result-cache
	// hits and intra-batch duplicates (it matches the number of
	// JobUpdates delivered with Cached true).
	Cached int
	// Errors lists the quarantined jobs of a partially failed sweep in
	// index order — cells whose simulation failed or panicked. Empty
	// for fully successful sweeps, so existing consumers and serialized
	// shapes are unchanged.
	Errors []CellError
}

// failedSet indexes the quarantined jobs for exclusion from grouping.
func (o *Outcome) failedSet() map[int]bool {
	if len(o.Errors) == 0 {
		return nil
	}
	set := make(map[int]bool, len(o.Errors))
	for _, ce := range o.Errors {
		set[ce.Index] = true
	}
	return set
}

// CellSummary reduces one grid point's repetitions to the paper's
// metrics: mean and 95% CI over seeds for goodput and normalized
// energy (total and overhearing-free), plus the mean delay.
type CellSummary struct {
	// Point is the grid cell the summaries describe.
	Point Point
	// Runs is the number of seeded repetitions behind the summaries.
	Runs int
	// Goodput is delivered over generated bits, summarized over seeds.
	Goodput metrics.Summary
	// NormEnergy is normalized energy under the model's full charging
	// policy; IdealEnergy excludes overhearing charges (sensor model).
	NormEnergy, IdealEnergy metrics.Summary
	MeanDelay               time.Duration
}

// Cells groups the outcome per grid point (in first-appearance job
// order) and summarizes each. Quarantined jobs are excluded: a point
// with failed repetitions summarizes over the successful ones, and a
// point whose every repetition failed is omitted entirely (it is still
// visible through Errors).
func (o *Outcome) Cells() []CellSummary {
	failed := o.failedSet()
	var order []Point
	grouped := make(map[Point][]netsim.Result)
	for i, job := range o.Jobs {
		if failed[i] {
			continue
		}
		if _, ok := grouped[job.Point]; !ok {
			order = append(order, job.Point)
		}
		grouped[job.Point] = append(grouped[job.Point], o.Results[i])
	}
	cells := make([]CellSummary, 0, len(order))
	for _, pt := range order {
		rs := grouped[pt]
		g, e, ie, d := netsim.Summaries(rs)
		cells = append(cells, CellSummary{
			Point:       pt,
			Runs:        len(rs),
			Goodput:     g,
			NormEnergy:  e,
			IdealEnergy: ie,
			MeanDelay:   d,
		})
	}
	return cells
}

// Summary is an executed sweep reduced to what its exports read: the
// job accounting, one CellSummary per grid point and the quarantined
// cells. It holds no per-run results, so its size follows the number
// of grid points, not the number of packets the runs delivered. The
// results.json, CSV, table and report.md renderers all read it.
type Summary struct {
	// Jobs is the number of executed jobs; Cached counts those served
	// without simulating (see Outcome.Cached).
	Jobs, Cached int
	// Cells are the per-point summaries in first-appearance job order
	// (see Outcome.Cells).
	Cells []CellSummary
	// Errors lists the quarantined jobs in index order.
	Errors []CellError
}

// Summary reduces the outcome to its per-point summaries.
func (o *Outcome) Summary() *Summary {
	return &Summary{Jobs: len(o.Jobs), Cached: o.Cached, Cells: o.Cells(), Errors: o.Errors}
}

// Metric selects which summarized quantity a table or export column
// carries.
type Metric int

// Exportable metrics.
const (
	// MetricGoodput is delivered over generated bits.
	MetricGoodput Metric = iota
	// MetricNormEnergy is J/Kbit under the model's charging policy.
	MetricNormEnergy
	// MetricIdealEnergy is J/Kbit without overhearing charges.
	MetricIdealEnergy
)

// String names the metric.
func (m Metric) String() string {
	switch m {
	case MetricNormEnergy:
		return "norm-energy(J/Kbit)"
	case MetricIdealEnergy:
		return "ideal-energy(J/Kbit)"
	default:
		return "goodput"
	}
}

// value extracts the metric from a cell.
func (m Metric) value(c CellSummary) metrics.Summary {
	switch m {
	case MetricNormEnergy:
		return c.NormEnergy
	case MetricIdealEnergy:
		return c.IdealEnergy
	default:
		return c.Goodput
	}
}

// Table renders the outcome as a metrics.Table; see Summary.Table.
func (o *Outcome) Table(title string, metric Metric) metrics.Table {
	return o.Summary().Table(title, metric)
}

// Table renders the summary as a metrics.Table: senders on the x axis,
// one series per (model, burst, traffic) combination present in the
// sweep, carrying the chosen metric.
func (sum *Summary) Table(title string, metric Metric) metrics.Table {
	tbl := metrics.Table{
		Title:  title,
		XLabel: "senders",
		YLabel: metric.String(),
	}
	type curve struct {
		Model    netsim.Model
		Burst    int
		Traffic  netsim.Traffic
		Topology string
		Churn    float64
	}
	var order []curve
	series := make(map[curve]*metrics.Series)
	for _, c := range sum.Cells {
		k := curve{c.Point.Model, c.Point.Burst, c.Point.Traffic,
			c.Point.Topology, c.Point.Churn}
		s, ok := series[k]
		if !ok {
			label := k.Model.String()
			if k.Model == netsim.ModelDual {
				label = fmt.Sprintf("DualRadio-%d", k.Burst)
			}
			if k.Traffic != netsim.TrafficCBR {
				label += "/" + k.Traffic.String()
			}
			if k.Topology != "" {
				label += "/" + k.Topology
			}
			if k.Churn > 0 {
				label += fmt.Sprintf("/churn%g", k.Churn)
			}
			s = &metrics.Series{Label: label}
			series[k] = s
			order = append(order, k)
		}
		s.X = append(s.X, float64(c.Point.Senders))
		s.Y = append(s.Y, metric.value(c))
	}
	for _, k := range order {
		tbl.Series = append(tbl.Series, *series[k])
	}
	return tbl
}

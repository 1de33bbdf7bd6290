// Package metrics computes the paper's three evaluation metrics —
// goodput, normalized energy (J/Kbit) and delay — plus the mean and 95%
// confidence intervals over repeated seeded runs, and formats result
// tables in the shape of the paper's figures.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"bulktx/internal/units"
)

// RunResult captures one simulation run's raw outcomes.
type RunResult struct {
	// GeneratedBits counts application payload bits created at senders.
	GeneratedBits int64
	// DeliveredBits counts application payload bits received by the sink.
	DeliveredBits int64
	// TotalEnergy is the chargeable energy across all nodes and radios.
	TotalEnergy units.Energy
	// Delays are per-packet generation-to-sink-delivery latencies.
	Delays []time.Duration
	// PerNode is the per-node per-radio per-state energy breakdown,
	// populated only when the run was traced (netsim.WithTrace); nil
	// otherwise, so untraced results keep their pre-trace JSON encoding
	// byte-for-byte (the golden-fingerprint contract).
	PerNode []NodeEnergy `json:",omitempty"`
}

// Goodput is the ratio of bits received by the sink to bits generated by
// the senders (paper Section 4.1 metric 1; data still buffered or lost at
// the end of a run counts against it).
func (r RunResult) Goodput() float64 {
	if r.GeneratedBits == 0 {
		return 0
	}
	return float64(r.DeliveredBits) / float64(r.GeneratedBits)
}

// NormalizedEnergy is total energy over delivered kilobits, in J/Kbit
// (paper metric 2). It returns +Inf when nothing was delivered but energy
// was spent, and 0 when nothing happened at all.
func (r RunResult) NormalizedEnergy() float64 {
	if r.DeliveredBits == 0 {
		if r.TotalEnergy == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return r.TotalEnergy.Joules() / (float64(r.DeliveredBits) / 1000)
}

// EnergyPerPacket is total energy over delivered packets (the
// prototype figures' metric), or 0 when nothing was delivered.
func (r RunResult) EnergyPerPacket() units.Energy {
	if len(r.Delays) == 0 {
		return 0
	}
	return r.TotalEnergy / units.Energy(float64(len(r.Delays)))
}

// MeanDelay is the average per-packet delay (paper metric 3).
func (r RunResult) MeanDelay() time.Duration {
	if len(r.Delays) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range r.Delays {
		sum += d
	}
	return sum / time.Duration(len(r.Delays))
}

// Summary is a mean with a 95% confidence half-interval.
type Summary struct {
	// Mean is the sample mean.
	Mean float64
	// CI95 is the 95% confidence half-interval around the mean.
	CI95 float64
	// N is the sample count behind the summary.
	N int
}

// String formats the summary as "mean ± ci".
func (s Summary) String() string {
	return fmt.Sprintf("%.4f ± %.4f", s.Mean, s.CI95)
}

// Summarize computes the mean and 95% confidence half-interval of a
// sample using the normal approximation the paper's 20-run averages rely
// on (1.96 standard errors).
func Summarize(samples []float64) Summary {
	n := len(samples)
	if n == 0 {
		return Summary{}
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	mean := sum / float64(n)
	if n == 1 {
		return Summary{Mean: mean, N: 1}
	}
	var ss float64
	for _, v := range samples {
		d := v - mean
		ss += d * d
	}
	stddev := math.Sqrt(ss / float64(n-1))
	return Summary{
		Mean: mean,
		CI95: 1.96 * stddev / math.Sqrt(float64(n)),
		N:    n,
	}
}

// Series is one labelled curve of a figure: x positions with summarized
// y values.
type Series struct {
	// Label names the curve ("DualRadio-500", "Sensor", ...).
	Label string
	// X holds the curve's x positions.
	X []float64
	// Y holds one summarized value per x position.
	Y []Summary
}

// Table is a printable reproduction of one paper artifact (a figure's
// data or a literal table).
type Table struct {
	// Title names the artifact ("Figure 5: SH goodput ...").
	Title string
	// XLabel and YLabel name the axes.
	XLabel, YLabel string
	// Series are the curves.
	Series []Series
}

// Render formats the table with one row per x value and one column per
// series, in the fixed-width style of a gnuplot .dat file.
func (t Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", t.Title)
	fmt.Fprintf(&b, "# y: %s\n", t.YLabel)

	// Collect the union of x positions.
	xsSet := make(map[float64]bool)
	for _, s := range t.Series {
		for _, x := range s.X {
			xsSet[x] = true
		}
	}
	xs := make([]float64, 0, len(xsSet))
	for x := range xsSet {
		xs = append(xs, x)
	}
	sort.Float64s(xs)

	fmt.Fprintf(&b, "%-14s", t.XLabel)
	for _, s := range t.Series {
		fmt.Fprintf(&b, " %22s", s.Label)
	}
	b.WriteString("\n")
	for _, x := range xs {
		fmt.Fprintf(&b, "%-14.4g", x)
		for _, s := range t.Series {
			cell := strings.Repeat(" ", 22)
			for i, sx := range s.X {
				if sx == x {
					cell = fmt.Sprintf("%12.5g ±%8.3g", s.Y[i].Mean, s.Y[i].CI95)
					break
				}
			}
			fmt.Fprintf(&b, " %22s", cell)
		}
		b.WriteString("\n")
	}
	return b.String()
}

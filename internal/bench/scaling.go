package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"bulktx/internal/netsim"
)

// ScalingNodes is the canonical node-count sweep for the big-topology
// scaling benchmark; BENCH_PR6.json commits one ScalingPoint per entry.
var ScalingNodes = []int{1000, 5000, 10000, 50000, 100000}

// ScalingDuration is the simulated horizon of each scaling run. Two
// seconds keeps even the 100k-node point in single-digit wall seconds
// while still processing enough events for a stable events/s figure.
const ScalingDuration = 2 * time.Second

// ScalingPoint records one node count of the scaling sweep. Events is
// fully deterministic in (Nodes, duration) — the comparison gate holds
// it to exact equality — while the wall-clock and allocation figures
// are machine-dependent and gate only within a regression threshold.
type ScalingPoint struct {
	// Nodes is the grid size of this point.
	Nodes int `json:"nodes"`
	// BuildNs is the wall time of NewScalingScenario: topology layout,
	// spatial-hash construction and the connectivity check.
	BuildNs int64 `json:"build_ns"`
	// RunNs is the wall time of RunScenario.
	RunNs int64 `json:"run_ns"`
	// Events counts scheduler events processed (deterministic).
	Events uint64 `json:"events"`
	// EventsPerSec is Events divided by the run wall time.
	EventsPerSec float64 `json:"events_per_sec"`
	// AllocBytesPerNode is total heap allocation across build and run
	// divided by Nodes — the figure that should stay flat as N grows
	// (an O(N^2) structure shows up here first).
	AllocBytesPerNode float64 `json:"alloc_bytes_per_node"`
}

// MeasureScaling builds and runs the canonical scaling scenario at one
// node count and reports the point.
func MeasureScaling(nodes int, duration time.Duration) (ScalingPoint, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	s, err := netsim.NewScalingScenario(nodes, duration)
	if err != nil {
		return ScalingPoint{}, err
	}
	buildNs := time.Since(start).Nanoseconds()
	start = time.Now()
	res, err := netsim.RunScenario(s)
	if err != nil {
		return ScalingPoint{}, err
	}
	runNs := time.Since(start).Nanoseconds()
	runtime.ReadMemStats(&after)
	p := ScalingPoint{
		Nodes:             nodes,
		BuildNs:           buildNs,
		RunNs:             runNs,
		Events:            res.Events,
		AllocBytesPerNode: float64(after.TotalAlloc-before.TotalAlloc) / float64(nodes),
	}
	if runNs > 0 {
		p.EventsPerSec = float64(res.Events) / (float64(runNs) / 1e9)
	}
	return p, nil
}

// ScalingCurve sweeps MeasureScaling over the given node counts,
// logging one progress line per point to w (pass io.Discard to
// silence).
func ScalingCurve(w io.Writer, nodeCounts []int, duration time.Duration) ([]ScalingPoint, error) {
	if len(nodeCounts) == 0 {
		return nil, fmt.Errorf("bench: empty scaling node list")
	}
	points := make([]ScalingPoint, 0, len(nodeCounts))
	for _, n := range nodeCounts {
		fmt.Fprintf(w, "scaling N=%d...\n", n)
		p, err := MeasureScaling(n, duration)
		if err != nil {
			return nil, fmt.Errorf("bench: scaling N=%d: %w", n, err)
		}
		fmt.Fprintf(w, "  build %.2fs  run %.2fs  %d events  %.0f events/s  %.0f B/node\n",
			float64(p.BuildNs)/1e9, float64(p.RunNs)/1e9, p.Events, p.EventsPerSec, p.AllocBytesPerNode)
		points = append(points, p)
	}
	return points, nil
}

// CompareScaling gates a fresh scaling sweep against a committed
// baseline curve. Event counts are deterministic and must match
// exactly per node count (any drift means simulation behavior changed,
// which belongs in a fingerprint-reviewed PR, not a perf run);
// events/s goes through the shared Compare gate with maxRegress.
// Build time and bytes/node are reported in the curve but not gated —
// both are too machine-sensitive to hold to a threshold in CI.
func CompareScaling(w io.Writer, baseline, current []ScalingPoint, maxRegress float64) error {
	if len(baseline) == 0 {
		return fmt.Errorf("bench: empty baseline scaling curve")
	}
	base := make(map[int]ScalingPoint, len(baseline))
	for _, p := range baseline {
		base[p.Nodes] = p
	}
	var metrics []Metric
	for _, p := range current {
		b, ok := base[p.Nodes]
		if !ok {
			return fmt.Errorf("bench: baseline has no N=%d point (regenerate it)", p.Nodes)
		}
		if p.Events != b.Events {
			return fmt.Errorf("bench: N=%d processed %d events, baseline %d — the run is no longer equivalent; regenerate the baseline only alongside a fingerprint review",
				p.Nodes, p.Events, b.Events)
		}
		metrics = append(metrics, Metric{
			Name:           fmt.Sprintf("scaling N=%d events/s", p.Nodes),
			Baseline:       b.EventsPerSec,
			Current:        p.EventsPerSec,
			HigherIsBetter: true,
		})
	}
	return Compare(w, metrics, maxRegress)
}

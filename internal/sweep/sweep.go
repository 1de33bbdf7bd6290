// Package sweep orchestrates grids of seeded network-simulation runs —
// the shape of every evaluation in the paper (Section 4.1: senders x
// burst sizes x models x 20 seeds) and of the ablations around it.
//
// A Spec declares the grid as axes over a base netsim.Config template.
// Spec.Jobs compiles it into a flat, deterministically ordered and
// seeded job list; a Pool executes jobs under a budget of Workers
// simulations at once, shared by all its concurrent calls (default
// runtime.NumCPU), and returns results indexed by job, so
// parallel output is byte-identical to serial execution of the same
// list. An optional Cache (in-memory, optionally backed by an on-disk
// directory) keys results by a hash of the full run configuration, so
// re-running an overlapping sweep only simulates the new points.
// Outcome groups results back per grid point, summarizes them
// (mean / 95% CI over seeds) and exports JSON, CSV or metrics.Table.
package sweep

import (
	"fmt"
	"math"

	"bulktx/internal/netsim"
)

// Point identifies one cell of a sweep grid: the axis coordinates
// shared by all of the cell's seeded repetitions. Burst is 0 for
// non-dual models (the threshold axis collapses: it has no effect on
// the baseline models). Topology and Churn are the scenario axes;
// their zero values ("" and 0) are the default grid-without-churn
// scenario, so legacy points compare (and cache) exactly as before.
type Point struct {
	// Model selects sensor / 802.11 / dual-radio.
	Model netsim.Model
	// Senders is the cell's CBR sender count.
	Senders int
	// Burst is the dual model's alpha-s* threshold in sensor packets.
	Burst int
	// Traffic is the arrival process of the cell's senders.
	Traffic netsim.Traffic

	// Topology is the layout family ("" = the default grid; see
	// netsim.TopologyKinds).
	Topology string
	// Churn is the failure rate in expected failures per node-hour
	// (0 = no churn).
	Churn float64
}

// String renders the point compactly ("dual-radio/s15/b500/cbr",
// with "/linear" and "/churn3" suffixes when the scenario axes are
// swept).
func (p Point) String() string {
	s := fmt.Sprintf("%s/s%d/b%d/%s", p.Model, p.Senders, p.Burst, p.Traffic)
	if p.Topology != "" {
		s += "/" + p.Topology
	}
	if p.Churn > 0 {
		s += fmt.Sprintf("/churn%g", p.Churn)
	}
	return s
}

// Job is one simulation run of a sweep: a grid point, the repetition
// index within the point, and the fully resolved run configuration.
type Job struct {
	// Point is the grid cell the job belongs to.
	Point Point
	// Rep is the repetition index within the point (seed BaseSeed+Rep).
	Rep int
	// Config is the fully resolved run configuration.
	Config netsim.Config
}

// Spec declares a sweep grid over a base configuration template. Axis
// slices left nil default to the base config's own value, so a zero
// axis means "don't sweep this dimension".
type Spec struct {
	// Base is the configuration template: every job starts as a copy of
	// Base and then has its axis fields and seed overwritten.
	Base netsim.Config

	// Models, Senders, Bursts and Traffics are the swept axes.
	Models   []netsim.Model
	Senders  []int
	Bursts   []int
	Traffics []netsim.Traffic

	// Topologies and ChurnRates are the scenario axes: layout families
	// (netsim.TopologyKinds; "" selects the base config's topology) and
	// failure rates in expected failures per node-hour. Left nil they
	// default to the base config's own values, like every other axis.
	Topologies []string
	ChurnRates []float64

	// Runs is the number of seeded repetitions per grid point
	// (default 1).
	Runs int

	// BaseSeed seeds the repetitions: rep r runs with seed BaseSeed+r,
	// identically across grid points (the paper's common-random-numbers
	// convention).
	BaseSeed int64
}

// axes resolves the axis slices against the base template.
func (s Spec) axes() (models []netsim.Model, senders, bursts []int, traffics []netsim.Traffic, topologies []string, churns []float64, runs int) {
	models = s.Models
	if len(models) == 0 {
		models = []netsim.Model{s.Base.Model}
	}
	senders = s.Senders
	if len(senders) == 0 {
		senders = []int{s.Base.Senders}
	}
	bursts = s.Bursts
	if len(bursts) == 0 {
		bursts = []int{s.Base.BurstPackets}
	}
	traffics = s.Traffics
	if len(traffics) == 0 {
		traffics = []netsim.Traffic{s.Base.Traffic}
	}
	topologies = s.Topologies
	if len(topologies) == 0 {
		topologies = []string{s.Base.Topology}
	}
	churns = s.ChurnRates
	if len(churns) == 0 {
		churns = []float64{s.Base.ChurnRate}
	}
	runs = s.Runs
	if runs == 0 {
		runs = 1
	}
	return models, senders, bursts, traffics, topologies, churns, runs
}

// Jobs compiles the spec into its flat job list, ordered
// topology-major, then churn, model, senders, bursts, traffic,
// repetition (so legacy specs — one topology, no churn — keep their
// pre-redesign job order). For non-dual models the burst axis collapses
// to a single job per (senders, traffic, rep) with BurstPackets pinned
// to 1 (validated but unused by those models), so baselines are not
// redundantly re-simulated per burst size. Every job's configuration is
// validated.
func (s Spec) Jobs() ([]Job, error) {
	if s.Runs < 0 {
		return nil, fieldErr("runs", "negative runs %d", s.Runs)
	}
	models, senders, bursts, traffics, topologies, churns, runs := s.axes()
	var jobs []Job
	for _, topol := range topologies {
		if topol == "" {
			// An empty axis value selects the base config's topology, as
			// the Topologies doc promises.
			topol = s.Base.Topology
		}
		if topol == netsim.TopoGrid {
			// An explicit "grid" axis value is the default scenario:
			// normalize it so its cells (and cache keys) are identical to
			// legacy sweeps that never named a topology.
			topol = ""
		}
		for _, churn := range churns {
			for _, m := range models {
				mBursts := bursts
				if m != netsim.ModelDual {
					mBursts = []int{0}
				}
				for _, n := range senders {
					for _, b := range mBursts {
						for _, tr := range traffics {
							for r := 0; r < runs; r++ {
								cfg := s.Base
								cfg.Topology = topol
								cfg.ChurnRate = churn
								cfg.Model = m
								cfg.Senders = n
								cfg.BurstPackets = b
								if m != netsim.ModelDual {
									cfg.BurstPackets = 1
								}
								cfg.Traffic = tr
								cfg.Seed = s.BaseSeed + int64(r)
								pt := Point{
									Model: m, Senders: n, Burst: b, Traffic: tr,
									Topology: topol, Churn: churn,
								}
								if err := cfg.Validate(); err != nil {
									return nil, fmt.Errorf("sweep: job %v rep %d: %w", pt, r, err)
								}
								jobs = append(jobs, Job{Point: pt, Rep: r, Config: cfg})
							}
						}
					}
				}
			}
		}
	}
	return jobs, nil
}

// Size is the number of jobs the spec compiles to, without validating
// or compiling them, so a caller can bound a grid before paying for it.
// It saturates at math.MaxInt, and is 0 for negative Runs (which Jobs
// rejects).
func (s Spec) Size() int {
	models, senders, bursts, traffics, topologies, churns, runs := s.axes()
	if runs < 0 {
		return 0
	}
	per := mulSat(mulSat(len(senders), len(traffics)), runs)
	n := 0
	for _, m := range models {
		if m == netsim.ModelDual {
			n = addSat(n, mulSat(per, len(bursts)))
		} else {
			n = addSat(n, per)
		}
	}
	return mulSat(mulSat(n, len(topologies)), len(churns))
}

// mulSat and addSat are non-negative int arithmetic saturating at
// math.MaxInt.
func mulSat(a, b int) int {
	if a != 0 && b > math.MaxInt/a {
		return math.MaxInt
	}
	return a * b
}

func addSat(a, b int) int {
	if a > math.MaxInt-b {
		return math.MaxInt
	}
	return a + b
}

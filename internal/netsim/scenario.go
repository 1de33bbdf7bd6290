package netsim

import (
	"math"
	"time"

	"bulktx/internal/core"
	"bulktx/internal/params"
	"bulktx/internal/topo"
	"bulktx/internal/trace"
	"bulktx/internal/units"
)

// Scenario is a validated Config with its deployment resolved: the
// node layout, the sink, the senders and the churn schedule, plus
// whether runs are traced. Config.Scenario builds it. A Scenario is
// immutable after construction; run it with RunScenario (or
// RunScenarioMany for seeded repetitions).
type Scenario struct {
	// cfg holds the run's settings; Config.Scenario resolves a zero
	// WifiRange to the wifi profile's range.
	cfg Config

	traceOn   bool
	traceOpts trace.Options

	// Resolved at build time.
	layout      *topo.Layout
	sinkID      int
	senderIDs   []int
	churnEvents []churnEvent
}

// Option adjusts how Config.Scenario builds a Scenario. WithTrace is
// the only one.
type Option func(*Scenario)

// WithTrace enables per-run observability: every run of the scenario
// records per-node per-radio per-state energy breakdowns
// (Result.PerNode), and — as the options select — packet-provenance
// and state-transition event streams plus periodic energy samples
// (Result.Trace). Tracing never perturbs the simulated trajectory:
// goodput, delays and the sequence of protocol events are identical to
// an untraced run of the same seed (sampling ticks do grow the Events
// counter, and settling meters at sample instants can shift energy
// totals by float-rounding ulps). Scenarios without WithTrace pay
// nothing: the probe hooks stay nil, which is the benchmarked
// zero-cost fast path.
func WithTrace(o trace.Options) Option {
	return func(s *Scenario) {
		s.traceOn = true
		s.traceOpts = o
	}
}

// agentConfig is node i's BCP agent configuration: the scenario's burst
// threshold plus whichever extensions it enables.
func (s *Scenario) agentConfig(i int) core.Config {
	cfg := core.DefaultConfig(i, s.cfg.BurstPackets)
	cfg.PostBurstLinger = s.cfg.PostBurstLinger
	if s.cfg.MinGrantPackets > 0 {
		cfg.MinGrant = units.ByteSize(s.cfg.MinGrantPackets) * params.SensorPayload
	}
	cfg.ThresholdAlpha = s.cfg.AdaptiveThresholdAlpha
	cfg.DelayBound = s.cfg.DelayBound
	return cfg
}

// NewScalingScenario builds the canonical big-topology scaling setup
// used by the scaling benchmark and the large-grid golden fingerprint:
// the sensor model on a square grid sized to hold nodes with exactly
// the sensor radio's 40 m spacing (field = 40 m * (side - 1), the same
// geometry as the paper's 6x6 evaluation grid, extended), near-center
// sink, CBR senders at the sensor high rate — max(10, nodes/100)
// senders, capped at nodes-1 — and seed 1. Everything is deterministic
// in (nodes, duration), so a fixed-seed run fingerprints stably.
func NewScalingScenario(nodes int, duration time.Duration) (*Scenario, error) {
	side := int(math.Ceil(math.Sqrt(float64(nodes))))
	cfg := DefaultConfig(ModelSensor, min(max(10, nodes/100), nodes-1), 0, 1)
	cfg.Nodes = nodes
	cfg.Field = units.Meters(float64(side-1)) * cfg.SensorProfile.Range
	cfg.Rate = params.HighRate
	cfg.Duration = duration
	return cfg.Scenario()
}

// withSeed returns a shallow copy of the scenario under a different
// run seed. Placement does not depend on the run seed, so the copy
// shares the layout and the resolved IDs; churn is drawn again for the
// new seed, as Config.Scenario would draw it.
func (s *Scenario) withSeed(seed int64) *Scenario {
	c := *s
	c.cfg.Seed = seed
	c.churnEvents = c.cfg.churnSchedule(c.layout.Len(), c.sinkID)
	return &c
}

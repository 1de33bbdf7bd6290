package netsim

import (
	"fmt"
	"math"
	"time"

	"bulktx/internal/core"
	"bulktx/internal/params"
	"bulktx/internal/topo"
	"bulktx/internal/trace"
	"bulktx/internal/units"
)

// Workload is the pluggable traffic part of a Scenario: the arrival
// process and per-sender application rates.
type Workload struct {
	// Traffic selects the arrival process (CBR, Poisson, OnOff).
	Traffic Traffic
	// Rate is the per-sender application rate.
	Rate units.BitRate
	// Rates, when non-empty, overrides Rate per sender: sender i (in
	// placement order) runs at Rates[i mod len(Rates)], so a short list
	// tiles over a large sender set (e.g. alternating fast and slow
	// sensors).
	Rates []units.BitRate
}

// RateFor returns sender i's application rate.
func (w Workload) RateFor(i int) units.BitRate {
	if len(w.Rates) == 0 {
		return w.Rate
	}
	return w.Rates[i%len(w.Rates)]
}

func (w Workload) validate() error {
	if w.Traffic < TrafficCBR || w.Traffic > TrafficOnOff {
		return fmt.Errorf("netsim: invalid traffic model %d", int(w.Traffic))
	}
	if len(w.Rates) == 0 && w.Rate <= 0 {
		return fmt.Errorf("netsim: non-positive rate %v", w.Rate)
	}
	for i, r := range w.Rates {
		if r <= 0 {
			return fmt.Errorf("netsim: non-positive rate %v for sender %d", r, i)
		}
	}
	return nil
}

// CBRWorkload is the paper's constant-bit-rate workload at the given
// per-sender rate.
func CBRWorkload(rate units.BitRate) Workload {
	return Workload{Traffic: TrafficCBR, Rate: rate}
}

// PoissonWorkload generates exponentially distributed inter-arrivals at
// the given mean per-sender rate.
func PoissonWorkload(rate units.BitRate) Workload {
	return Workload{Traffic: TrafficPoisson, Rate: rate}
}

// OnOffWorkload alternates peak-rate bursts with silences preserving
// the given mean per-sender rate.
func OnOffWorkload(rate units.BitRate) Workload {
	return Workload{Traffic: TrafficOnOff, Rate: rate}
}

// LinkModel is the pluggable channel-quality part of a Scenario:
// per-channel noise loss, either flat or distance-dependent.
type LinkModel struct {
	// SensorLoss and WifiLoss are flat per-reception loss probabilities
	// in [0, 1).
	SensorLoss, WifiLoss float64
	// SensorLossAt and WifiLossAt, when non-nil, replace the flat
	// probabilities with distance-dependent ones (see DistanceLoss).
	SensorLossAt, WifiLossAt func(d units.Meters) float64
}

func (l LinkModel) validate() error {
	if l.SensorLoss < 0 || l.SensorLoss >= 1 || l.WifiLoss < 0 || l.WifiLoss >= 1 {
		return fmt.Errorf("netsim: loss probabilities outside [0,1)")
	}
	return nil
}

// DistanceLoss returns a link-loss curve growing quadratically with
// distance: floor at zero range rising to ceil at refRange (clamped
// beyond). It is the standard shape of noise-floor loss under
// free-space path loss with a fixed transmit power.
func DistanceLoss(floor, ceil float64, refRange units.Meters) func(units.Meters) float64 {
	return func(d units.Meters) float64 {
		if refRange <= 0 {
			return floor
		}
		frac := float64(d) / float64(refRange)
		if frac > 1 {
			frac = 1
		}
		return floor + (ceil-floor)*frac*frac
	}
}

// Scenario is a fully resolved simulation setup: a Config, which
// carries every scalar setting, plus its parts — topology, placement,
// workload, link quality, churn and tracing — each built from the
// Config or passed as an Option. Config.Scenario assembles and
// validates it. A Scenario is immutable after construction; run it
// with RunScenario (or RunScenarioMany for seeded repetitions).
type Scenario struct {
	// cfg holds the scalar settings; build resolves a zero WifiRange to
	// the wifi profile's range.
	cfg Config

	topology Topology
	// replaced records the config fields that parts replaced, which
	// Config.Scenario leaves unchecked.
	replaced replacedFields
	sink     SinkPolicy
	senders  SenderPolicy
	workload Workload
	links    LinkModel
	// churn is the WithChurn part. Nil draws the schedule from the
	// config's ChurnRate under the run seed.
	churn Churn

	traceOn   bool
	traceOpts trace.Options

	// Resolved at build time.
	layout      *topo.Layout
	sinkID      int
	senderIDs   []int
	churnEvents []ChurnEvent
}

// Option passes one part to Config.Scenario, replacing the part that
// the config's fields would build. All validation happens at build
// time, so an option never fails in isolation.
type Option func(*Scenario)

// WithTopology replaces the config's Topology, Nodes and Field with an
// arbitrary deployment.
func WithTopology(t Topology) Option {
	return func(s *Scenario) { s.topology, s.replaced.layout = t, true }
}

// WithSink replaces the config's Sink with a sink-placement policy.
func WithSink(p SinkPolicy) Option { return func(s *Scenario) { s.sink = p } }

// WithSenderPolicy replaces the stable-shuffle sender selection. The
// policy picks Config.Senders nodes, except ExplicitSenders, which
// carries its own set and count.
func WithSenderPolicy(p SenderPolicy) Option { return func(s *Scenario) { s.senders = p } }

// WithWorkload replaces the config's Traffic and Rate with a workload
// that may also set per-sender rates. A config capped by Messages
// needs a CBR workload.
func WithWorkload(w Workload) Option {
	return func(s *Scenario) { s.workload, s.replaced.workload = w, true }
}

// WithLinks replaces the config's flat SensorLoss and WifiLoss with a
// channel-quality model that may depend on distance.
func WithLinks(l LinkModel) Option {
	return func(s *Scenario) { s.links, s.replaced.links = l, true }
}

// WithChurn replaces the config's ChurnRate and ChurnMeanDowntime with
// a failure/recovery model. Its schedule is fixed: it does not change
// with the run seed.
func WithChurn(c Churn) Option {
	return func(s *Scenario) { s.churn, s.replaced.churn = c, c != nil }
}

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

// build materializes and validates the composed parts. Config.Scenario
// checked the scalar settings; the sender policy bounds the sender
// count by the layout.
func (s *Scenario) build() error {
	switch {
	case s.topology == nil:
		return fmt.Errorf("netsim: nil topology")
	case s.sink == nil:
		return fmt.Errorf("netsim: nil sink policy")
	case s.senders == nil:
		return fmt.Errorf("netsim: nil sender policy")
	}
	if s.cfg.WifiRange == 0 {
		s.cfg.WifiRange = s.cfg.WifiProfile.Range
	}
	if err := s.workload.validate(); err != nil {
		return err
	}
	if s.cfg.Messages > 0 && s.workload.Traffic != TrafficCBR {
		return uncappable(s.cfg.Messages)
	}
	if err := s.links.validate(); err != nil {
		return err
	}

	layout, err := s.topology.Layout()
	if err != nil {
		return err
	}
	if layout.Len() < 2 {
		return fmt.Errorf("netsim: need at least 2 nodes, got %d", layout.Len())
	}
	sink, err := s.sink.Pick(layout)
	if err != nil {
		return err
	}
	if sink < 0 || sink >= layout.Len() {
		return fmt.Errorf("netsim: sink %d outside layout", sink)
	}
	senderIDs, err := s.senders.Pick(layout, sink, s.cfg.Senders)
	if err != nil {
		return err
	}
	if len(senderIDs) == 0 {
		return fmt.Errorf("netsim: no senders selected")
	}
	for _, id := range senderIDs {
		if id < 0 || id >= layout.Len() || id == sink {
			return fmt.Errorf("netsim: sender policy %q picked invalid sender %d",
				s.senders.Kind(), id)
		}
	}

	// Connectivity is a build-time property of the composed scenario:
	// catching a partitioned deployment here yields one clear error
	// instead of a routing failure mid-run. The sensor fabric must span
	// the network for the sensor and dual models; the pure-802.11 model
	// only needs connectivity at wifi range.
	reqRange := s.cfg.SensorProfile.Range
	radioName := "sensor"
	if s.cfg.Model == ModelWifi {
		reqRange = s.cfg.WifiRange
		radioName = "wifi"
	}
	if !layout.Connected(sink, reqRange) {
		return fmt.Errorf("netsim: %q topology (%d nodes) is not connected at the %s radio's %v range from sink %d; increase density, shrink the field, or try another topology seed",
			s.topology.Kind(), layout.Len(), radioName, reqRange, sink)
	}

	s.layout = layout
	s.sinkID = sink
	s.senderIDs = senderIDs
	return s.resolveChurn()
}

// resolveChurn expands the churn part, or without one the config's
// ChurnRate under the current run seed, into the run's schedule.
func (s *Scenario) resolveChurn() error {
	c := s.churn
	if c == nil {
		c = s.cfg.churn()
	}
	s.churnEvents = nil
	if c == nil {
		return nil
	}
	events, err := c.Events(s.layout.Len(), s.sinkID, s.cfg.Duration)
	if err != nil {
		return err
	}
	s.churnEvents = events
	return nil
}

// agentConfig is node i's BCP agent configuration: the scenario's burst
// threshold plus whichever extensions it enables.
func (s *Scenario) agentConfig(i int) core.Config {
	cfg := core.DefaultConfig(i, s.cfg.BurstPackets)
	cfg.PostBurstLinger = s.cfg.PostBurstLinger
	if s.cfg.MinGrantPackets > 0 {
		cfg.MinGrant = units.ByteSize(s.cfg.MinGrantPackets) * params.SensorPayload
	}
	if s.cfg.AdaptiveThresholdAlpha > 0 {
		cfg.AdaptiveThreshold = true
		cfg.ThresholdAlpha = s.cfg.AdaptiveThresholdAlpha
	}
	cfg.DelayBound = s.cfg.DelayBound
	return cfg
}

// Model returns the evaluation model.
func (s *Scenario) Model() Model { return s.cfg.Model }

// Layout returns the materialized node positions.
func (s *Scenario) Layout() *topo.Layout { return s.layout }

// Nodes returns the deployment size.
func (s *Scenario) Nodes() int { return s.layout.Len() }

// Sink returns the resolved sink node index.
func (s *Scenario) Sink() int { return s.sinkID }

// SenderIDs returns a copy of the resolved sender node indices, in
// placement order.
func (s *Scenario) SenderIDs() []int {
	out := make([]int, len(s.senderIDs))
	copy(out, s.senderIDs)
	return out
}

// Seed returns the run seed.
func (s *Scenario) Seed() int64 { return s.cfg.Seed }

// Duration returns the simulated run length.
func (s *Scenario) Duration() time.Duration { return s.cfg.Duration }

// TopologyKind names the scenario's topology family.
func (s *Scenario) TopologyKind() string { return s.topology.Kind() }

// ChurnEvents returns a copy of the resolved failure/recovery
// schedule (empty without churn).
func (s *Scenario) ChurnEvents() []ChurnEvent {
	out := make([]ChurnEvent, len(s.churnEvents))
	copy(out, s.churnEvents)
	return out
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

// withSeed returns a shallow copy of the scenario rebuilt with a
// different run seed. Placement does not depend on the run seed, so
// the copy shares the layout and the resolved IDs. A churn part keeps
// its schedule; churn drawn from the config's ChurnRate is drawn again
// for the new seed, as Config.Scenario would.
func (s *Scenario) withSeed(seed int64) (*Scenario, error) {
	c := *s
	c.cfg.Seed = seed
	if c.churn != nil {
		return &c, nil
	}
	return &c, c.resolveChurn()
}

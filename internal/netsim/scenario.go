package netsim

import (
	"fmt"
	"math"
	"time"

	"bulktx/internal/core"
	"bulktx/internal/energy"
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

// Scenario is a fully resolved simulation setup: topology, placement,
// workload, link quality and churn, assembled and validated by
// NewScenario. A Scenario is immutable after construction; run it with
// RunScenario (or RunScenarioMany for seeded repetitions).
type Scenario struct {
	model       Model
	topology    Topology
	sink        SinkPolicy
	senders     SenderPolicy
	nSenders    int
	nSendersSet bool
	workload    Workload
	links       LinkModel
	churn       Churn

	duration     time.Duration
	burstPackets int
	seed         int64

	sensorProfile, wifiProfile energy.Profile
	wifiRange                  units.Meters

	postBurstLinger    time.Duration
	useShortcutLearner bool
	minGrantPackets    int
	adaptiveAlpha      float64
	delayBound         time.Duration

	traceOn   bool
	traceOpts trace.Options

	// Resolved at build time.
	layout      *topo.Layout
	sinkID      int
	senderIDs   []int
	churnEvents []ChurnEvent
}

// Option configures a Scenario under construction; apply with
// NewScenario. All validation happens at build time, so an option never
// fails in isolation.
type Option func(*Scenario)

// WithModel selects the evaluation model (sensor / 802.11 / dual;
// default dual).
func WithModel(m Model) Option { return func(s *Scenario) { s.model = m } }

// WithTopology selects the node deployment (default the paper's
// GridTopology(36, 200)).
func WithTopology(t Topology) Option { return func(s *Scenario) { s.topology = t } }

// WithSink selects the sink-placement policy (default SinkNearCenter).
func WithSink(p SinkPolicy) Option { return func(s *Scenario) { s.sink = p } }

// WithSenders sets how many nodes generate traffic (default 5),
// selected by the current sender policy. ExplicitSenders carries its
// own count; combining it with a conflicting WithSenders is a build
// error.
func WithSenders(n int) Option {
	return func(s *Scenario) {
		s.nSenders = n
		s.nSendersSet = true
	}
}

// WithSenderPolicy selects the sender-selection strategy (default
// StableShuffleSenders). ExplicitSenders implies the sender count.
func WithSenderPolicy(p SenderPolicy) Option { return func(s *Scenario) { s.senders = p } }

// WithWorkload sets the traffic model (default the paper's CBR at
// 0.2 Kbps per sender).
func WithWorkload(w Workload) Option { return func(s *Scenario) { s.workload = w } }

// WithLinks sets the channel-quality model (default lossless beyond
// collisions).
func WithLinks(l LinkModel) Option { return func(s *Scenario) { s.links = l } }

// WithChurn enables a node failure/recovery model (default none).
func WithChurn(c Churn) Option { return func(s *Scenario) { s.churn = c } }

// WithDuration sets the simulated time (default the paper's 5000 s).
func WithDuration(d time.Duration) Option { return func(s *Scenario) { s.duration = d } }

// WithBurst sets the dual model's alpha-s* threshold in sensor packets
// (default 100).
func WithBurst(packets int) Option { return func(s *Scenario) { s.burstPackets = packets } }

// WithSeed sets the seed driving all run randomness (default 1).
func WithSeed(seed int64) Option { return func(s *Scenario) { s.seed = seed } }

// WithRadios selects the sensor and wifi energy profiles (default
// Micaz and Lucent 11 Mbps).
func WithRadios(sensor, wifi energy.Profile) Option {
	return func(s *Scenario) {
		s.sensorProfile = sensor
		s.wifiProfile = wifi
	}
}

// WithWifiRange overrides the wifi profile's transmission range (the
// paper gives Lucent 11 Mbps the sensor radio's 40 m range; zero keeps
// the profile range).
func WithWifiRange(r units.Meters) Option { return func(s *Scenario) { s.wifiRange = r } }

// WithPostBurstLinger keeps dual-model radios idling after bursts
// (Figure 4's "idle" scenario; default immediate shutdown).
func WithPostBurstLinger(d time.Duration) Option {
	return func(s *Scenario) { s.postBurstLinger = d }
}

// WithShortcutLearner routes dual-model bursts over sensor-tree next
// hops upgraded by shortcut learning (Section 3) instead of a wifi
// tree.
func WithShortcutLearner(on bool) Option {
	return func(s *Scenario) { s.useShortcutLearner = on }
}

// WithMinGrant enables the give-up extension: grants below this many
// packets abort the handshake (default off).
func WithMinGrant(packets int) Option { return func(s *Scenario) { s.minGrantPackets = packets } }

// WithAdaptiveThreshold enables the adaptive-s* extension with the
// given alpha when positive (default off).
func WithAdaptiveThreshold(alpha float64) Option {
	return func(s *Scenario) { s.adaptiveAlpha = alpha }
}

// WithDelayBound enables the delay-constrained extension: buffered
// packets older than the bound are sent over the low-power radio
// (default off).
func WithDelayBound(d time.Duration) Option { return func(s *Scenario) { s.delayBound = d } }

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

// NewScenario assembles and validates a Scenario from its parts. Every
// default is explicit — the zero Scenario does not exist — and every
// constraint (topology well-formedness, sink and sender placement,
// rates, the churn schedule) is checked here, at build time, so
// RunScenario cannot fail on configuration.
//
// Defaults: the paper's single-hop evaluation — dual model on a 6x6
// grid over 200 m, near-center sink, 5 stable-shuffled CBR senders at
// 0.2 Kbps, 5000 s, burst threshold 100, Micaz + Lucent 11 Mbps at
// 40 m, no loss, no churn, seed 1.
func NewScenario(opts ...Option) (*Scenario, error) {
	s := &Scenario{
		model:         ModelDual,
		topology:      GridTopology(params.GridNodes, params.FieldSize),
		sink:          SinkNearCenter(),
		senders:       StableShuffleSenders(),
		nSenders:      5,
		workload:      CBRWorkload(params.LowRate),
		duration:      params.SimDuration,
		burstPackets:  100,
		seed:          1,
		sensorProfile: energy.Micaz(),
		wifiProfile:   energy.Lucent11(),
		wifiRange:     params.WifiShortRange,
	}
	for _, opt := range opts {
		opt(s)
	}
	if err := s.build(); err != nil {
		return nil, err
	}
	return s, nil
}

// build materializes and validates the composed parts.
func (s *Scenario) build() error {
	switch {
	case s.model < ModelSensor || s.model > ModelDual:
		return fmt.Errorf("netsim: invalid model %d", int(s.model))
	case s.topology == nil:
		return fmt.Errorf("netsim: nil topology")
	case s.sink == nil:
		return fmt.Errorf("netsim: nil sink policy")
	case s.senders == nil:
		return fmt.Errorf("netsim: nil sender policy")
	case s.duration <= 0:
		return fmt.Errorf("netsim: non-positive duration %v", s.duration)
	case s.model == ModelDual && s.burstPackets < 1:
		return fmt.Errorf("netsim: dual model needs positive burst size")
	case s.minGrantPackets < 0:
		return fmt.Errorf("netsim: negative min grant")
	case s.adaptiveAlpha < 0:
		return fmt.Errorf("netsim: negative adaptive alpha")
	case s.delayBound < 0:
		return fmt.Errorf("netsim: negative delay bound")
	case s.postBurstLinger < 0:
		return fmt.Errorf("netsim: negative post-burst linger")
	case s.wifiRange < 0:
		return fmt.Errorf("netsim: negative wifi range %v", s.wifiRange)
	}
	if s.wifiRange == 0 {
		s.wifiRange = s.wifiProfile.Range
	}
	if err := s.workload.validate(); err != nil {
		return err
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
	// The default sender count only applies to counting policies: an
	// explicit sender set carries its own size, and the builder's
	// untouched default must not conflict with it.
	nWanted := s.nSenders
	if !s.nSendersSet {
		if _, explicit := s.senders.(explicitSenders); explicit {
			nWanted = 0
		}
	}
	senderIDs, err := s.senders.Pick(layout, sink, nWanted)
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
	reqRange := s.sensorProfile.Range
	radioName := "sensor"
	if s.model == ModelWifi {
		reqRange = s.wifiRange
		radioName = "wifi"
	}
	if !layout.Connected(sink, reqRange) {
		return fmt.Errorf("netsim: %q topology (%d nodes) is not connected at the %s radio's %v range from sink %d; increase density, shrink the field, or try another topology seed",
			s.topology.Kind(), layout.Len(), radioName, reqRange, sink)
	}

	s.layout = layout
	s.sinkID = sink
	s.senderIDs = senderIDs
	s.nSenders = len(senderIDs)

	if s.churn != nil {
		events, err := s.churn.Events(layout.Len(), sink, s.duration)
		if err != nil {
			return err
		}
		s.churnEvents = events
	}
	return nil
}

// agentConfig is node i's BCP agent configuration: the scenario's burst
// threshold plus whichever extensions it enables.
func (s *Scenario) agentConfig(i int) core.Config {
	cfg := core.DefaultConfig(i, s.burstPackets)
	cfg.PostBurstLinger = s.postBurstLinger
	if s.minGrantPackets > 0 {
		cfg.MinGrant = units.ByteSize(s.minGrantPackets) * params.SensorPayload
	}
	if s.adaptiveAlpha > 0 {
		cfg.AdaptiveThreshold = true
		cfg.ThresholdAlpha = s.adaptiveAlpha
	}
	cfg.DelayBound = s.delayBound
	return cfg
}

// Model returns the evaluation model.
func (s *Scenario) Model() Model { return s.model }

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
func (s *Scenario) Seed() int64 { return s.seed }

// Duration returns the simulated run length.
func (s *Scenario) Duration() time.Duration { return s.duration }

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
	if nodes < 2 {
		return nil, fmt.Errorf("netsim: scaling scenario needs at least 2 nodes, got %d", nodes)
	}
	side := int(math.Ceil(math.Sqrt(float64(nodes))))
	field := units.Meters(float64(side-1)) * energy.Micaz().Range
	senders := max(10, nodes/100)
	if senders > nodes-1 {
		senders = nodes - 1
	}
	return NewScenario(
		WithModel(ModelSensor),
		WithTopology(GridTopology(nodes, field)),
		WithSenders(senders),
		WithWorkload(CBRWorkload(params.HighRate)),
		WithDuration(duration),
	)
}

// withSeed returns a shallow copy of the scenario rebuilt with a
// different run seed. Placement and churn schedules do not depend on
// the run seed, so the copy shares the layout and reuses the resolved
// IDs; only random topologies seeded from the run seed would differ,
// and those carry their own seeds by construction.
func (s *Scenario) withSeed(seed int64) *Scenario {
	c := *s
	c.seed = seed
	return &c
}

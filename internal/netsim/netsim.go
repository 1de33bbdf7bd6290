// Package netsim assembles full-network simulations of the paper's three
// evaluation models (Section 4.1):
//
//   - Sensor: a pure sensor network forwarding every packet hop-by-hop
//     over the low-power radio. Charged under two policies at once: the
//     ideal model (tx/rx only) and the header model (plus header
//     overhearing); idle is a base cost and ignored, as in the paper.
//   - Wifi: a pure IEEE 802.11 network with always-on radios, charged in
//     full (including idling).
//   - Dual: BCP over both radios — control on the sensor radio, bulk
//     data on the 802.11 radio, which is fully charged (tx, rx, idle,
//     wake-up, overhearing).
//
// The default scenario is the paper's: a 6x6 grid over 200x200 m, a
// near-center sink, N CBR senders, 5000 s runs. Beyond it, the
// composable Scenario API (NewScenario with functional options)
// assembles runs from pluggable parts — Topology, sink and sender
// placement policies, Workload, LinkModel and Churn — validated at
// build time; the flat Config is the serializable compatibility layer
// that compiles onto a Scenario via Config.Scenario.
package netsim

import (
	"fmt"
	"math/rand"
	"time"

	"bulktx/internal/core"
	"bulktx/internal/energy"
	"bulktx/internal/metrics"
	"bulktx/internal/params"
	"bulktx/internal/radio"
	"bulktx/internal/topo"
	"bulktx/internal/trace"
	"bulktx/internal/units"
)

// Model selects the evaluation model.
type Model int

// Evaluation models.
const (
	// ModelSensor is the pure sensor network.
	ModelSensor Model = iota + 1
	// ModelWifi is the pure 802.11 network with always-on radios.
	ModelWifi
	// ModelDual is BCP over the dual-radio platform.
	ModelDual
)

// String names the model.
func (m Model) String() string {
	switch m {
	case ModelSensor:
		return "sensor"
	case ModelWifi:
		return "802.11"
	case ModelDual:
		return "dual-radio"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// senderPermSeed fixes the sender-selection shuffle independently of the
// run seed so that the 5-sender set is a subset of the 10-sender set and
// both are identical across repetitions.
const senderPermSeed = 0xBEEF

// Traffic selects the arrival process of the senders.
type Traffic int

// Traffic models.
const (
	// TrafficCBR is the paper's constant-bit-rate workload (default).
	TrafficCBR Traffic = iota
	// TrafficPoisson uses exponentially distributed inter-arrivals at
	// the same mean rate.
	TrafficPoisson
	// TrafficOnOff alternates peak-rate bursts (mean 2 s ON) with
	// silences sized to preserve the configured mean rate — the shape of
	// event-triggered acoustic capture.
	TrafficOnOff
)

// String names the traffic model.
func (t Traffic) String() string {
	switch t {
	case TrafficCBR:
		return "cbr"
	case TrafficPoisson:
		return "poisson"
	case TrafficOnOff:
		return "onoff"
	default:
		return fmt.Sprintf("Traffic(%d)", int(t))
	}
}

// Config is the flat, serializable description of one simulation run —
// the compatibility and wire format behind the composable Scenario API.
// New code should prefer NewScenario with functional options
// (WithTopology, WithSenders, WithChurn, ...), which makes every
// default explicit and validates at build time; a Config compiles to a
// Scenario via Config.Scenario, and fixed-seed results through either
// surface are identical. Direct field access remains supported for
// sweeps, JSON specs and caches, where a flat struct is the right
// shape; prefer the builder everywhere else.
//
// Deprecated sentinels kept for compatibility: Sink < 0 selects the
// near-center default (the builder's explicit SinkNearCenter), and
// zero-valued fields inherit scenario defaults at compile time.
type Config struct {
	// Model selects sensor / 802.11 / dual-radio.
	Model Model

	// Nodes and Field define the grid (paper: 36 over 200 m).
	Nodes int
	Field units.Meters

	// Sink is the collection node index; negative selects the default
	// near-center node.
	//
	// Deprecated: the negative sentinel is the flat layer's legacy
	// encoding of "no explicit sink" and is honored forever so that
	// serialized configs and sweep cache keys keep working, but new
	// code should express placement through the builder instead:
	// WithSink(SinkNearCenter()) for the default, WithSink(SinkAt(i))
	// for a pinned node. No further sentinel values will be added.
	Sink int

	// Senders is how many nodes stream CBR traffic to the sink (5-35).
	Senders int

	// Rate is the per-sender application rate (0.2 or 2 Kbps).
	Rate units.BitRate

	// Traffic selects the arrival process (default CBR, as in the paper).
	Traffic Traffic

	// Duration is the simulated time (paper: 5000 s).
	Duration time.Duration

	// BurstPackets is the dual-radio alpha-s* threshold in sensor packets
	// (10/100/500/1000/2500).
	BurstPackets int

	// Seed drives all randomness of the run.
	Seed int64

	// SensorProfile and WifiProfile pick the radios (default Micaz and,
	// for the single-hop case, Lucent 11 Mbps).
	SensorProfile, WifiProfile energy.Profile

	// WifiRange overrides the wifi profile range (the paper gives Lucent
	// 11 Mbps the sensor radio's 40 m range).
	WifiRange units.Meters

	// SensorLoss injects random frame loss on the sensor channel.
	SensorLoss float64

	// WifiLoss injects random frame loss on the 802.11 channel.
	WifiLoss float64

	// PostBurstLinger keeps dual-model radios idling after bursts
	// (Figure 4's "idle" scenario; zero = immediate shutdown).
	PostBurstLinger time.Duration

	// UseShortcutLearner routes the dual model's bursts over sensor-tree
	// next hops upgraded by shortcut learning instead of a wifi tree
	// (Section 3 route optimization; an ablation in this codebase).
	UseShortcutLearner bool

	// MinGrantPackets enables the paper's give-up extension: grants below
	// this many packets abort the handshake.
	MinGrantPackets int

	// AdaptiveThresholdAlpha enables the adaptive-s* extension (paper
	// future work) with the given alpha when positive: agents recompute
	// their thresholds from observed retransmissions after every burst.
	AdaptiveThresholdAlpha float64

	// DelayBound enables the delay-constrained extension (paper future
	// work): buffered packets older than this are sent over the
	// low-power radio. Zero disables.
	DelayBound time.Duration

	// Topology selects the layout family: "" or "grid" (default),
	// "uniform", "clustered", "linear". The new fields below are the
	// flat forms of the Scenario API's pluggable parts; they carry
	// omitempty JSON tags so configurations that do not use them keep
	// their pre-redesign encoding (and sweep cache keys) byte-for-byte.
	Topology string `json:",omitempty"`

	// TopologySeed fixes the placement of random topologies (uniform,
	// clustered) independently of the run seed, so seeded repetitions
	// share one deployment (the senderPermSeed convention applied to
	// geometry). Zero selects a fixed default placement.
	TopologySeed int64 `json:",omitempty"`

	// Clusters is the hotspot count of the clustered topology
	// (default 4).
	Clusters int `json:",omitempty"`

	// ChurnRate enables random node churn: the expected number of
	// failures per node per simulated hour. Zero disables churn.
	ChurnRate float64 `json:",omitempty"`

	// ChurnMeanDowntime is the mean outage length under churn
	// (default 60 s).
	ChurnMeanDowntime time.Duration `json:",omitempty"`
}

// DefaultConfig returns the paper's scenario for a model, sender count,
// burst size and seed.
func DefaultConfig(model Model, senders, burstPackets int, seed int64) Config {
	return Config{
		Model:         model,
		Nodes:         params.GridNodes,
		Field:         params.FieldSize,
		Sink:          -1,
		Senders:       senders,
		Rate:          params.LowRate,
		Duration:      params.SimDuration,
		BurstPackets:  burstPackets,
		Seed:          seed,
		SensorProfile: energy.Micaz(),
		WifiProfile:   energy.Lucent11(),
		WifiRange:     params.WifiShortRange,
	}
}

// MultiHopConfig returns the paper's multi-hop scenario: Cabletron
// reaching the sink in one hop.
func MultiHopConfig(senders, burstPackets int, seed int64) Config {
	cfg := DefaultConfig(ModelDual, senders, burstPackets, seed)
	cfg.WifiProfile = energy.Cabletron()
	cfg.WifiRange = params.WifiLongRange
	cfg.Rate = params.HighRate
	return cfg
}

// FieldError is a validation failure annotated with the name of the
// offending field — a Config field ("Senders") or, when wrapped by the
// spec layers, a JSON document field ("senders"). Callers that turn
// validation failures into structured responses (the HTTP service's
// 400 bodies) extract it with errors.As; everyone else sees a plain
// error whose text leads with the field name.
type FieldError struct {
	// Field names the offending field.
	Field string
	// Reason describes why the field's value is unusable.
	Reason string
}

// Error renders "invalid <field>: <reason>".
func (e *FieldError) Error() string { return "invalid " + e.Field + ": " + e.Reason }

// Validate reports whether the configuration is usable. Failures are
// FieldErrors naming the offending Config field (wrapped under a
// "netsim:" prefix).
func (c Config) Validate() error {
	bad := func(field, format string, a ...any) error {
		return fmt.Errorf("netsim: %w", &FieldError{Field: field, Reason: fmt.Sprintf(format, a...)})
	}
	switch {
	case c.Model < ModelSensor || c.Model > ModelDual:
		return bad("Model", "unknown model %d", int(c.Model))
	case c.Nodes < 2:
		return bad("Nodes", "need at least 2 nodes, got %d", c.Nodes)
	case c.Field <= 0:
		return bad("Field", "non-positive field %v", c.Field)
	case c.Senders < 1 || c.Senders >= c.Nodes:
		return bad("Senders", "senders %d outside [1, %d)", c.Senders, c.Nodes)
	case c.Rate <= 0:
		return bad("Rate", "non-positive rate %v", c.Rate)
	case c.Duration <= 0:
		return bad("Duration", "non-positive duration %v", c.Duration)
	case c.Model == ModelDual && c.BurstPackets < 1:
		return bad("BurstPackets", "dual model needs a positive burst size, got %d", c.BurstPackets)
	case c.SensorLoss < 0 || c.SensorLoss >= 1:
		return bad("SensorLoss", "loss probability %v outside [0,1)", c.SensorLoss)
	case c.WifiLoss < 0 || c.WifiLoss >= 1:
		return bad("WifiLoss", "loss probability %v outside [0,1)", c.WifiLoss)
	case c.WifiRange < 0:
		return bad("WifiRange", "negative wifi range %v", c.WifiRange)
	case c.PostBurstLinger < 0:
		return bad("PostBurstLinger", "negative post-burst linger %v", c.PostBurstLinger)
	case c.MinGrantPackets < 0:
		return bad("MinGrantPackets", "negative min grant %d", c.MinGrantPackets)
	case c.AdaptiveThresholdAlpha < 0:
		return bad("AdaptiveThresholdAlpha", "negative adaptive alpha %v", c.AdaptiveThresholdAlpha)
	case c.DelayBound < 0:
		return bad("DelayBound", "negative delay bound %v", c.DelayBound)
	case c.Traffic < TrafficCBR || c.Traffic > TrafficOnOff:
		return bad("Traffic", "unknown traffic model %d", int(c.Traffic))
	case c.Clusters < 0:
		return bad("Clusters", "negative cluster count %d", c.Clusters)
	case c.ChurnRate < 0:
		return bad("ChurnRate", "negative churn rate %v", c.ChurnRate)
	case c.ChurnMeanDowntime < 0:
		return bad("ChurnMeanDowntime", "negative churn downtime %v", c.ChurnMeanDowntime)
	}
	switch c.Topology {
	case "", TopoGrid, TopoUniform, TopoClustered, TopoLinear:
	default:
		return bad("Topology", "unknown topology %q (want %v)", c.Topology, TopologyKinds())
	}
	return nil
}

// churnSeedSalt decorrelates the churn schedule's PRNG stream from the
// scheduler's, which is seeded with the run seed directly.
const churnSeedSalt = 0x5EED_C4A5

// defaultTopologySeed places random topologies when the config does
// not pin one. It is a fixed constant — not the run seed — so seeded
// repetitions share one deployment and a multi-rep batch cannot
// straddle connected and partitioned layouts.
const defaultTopologySeed = 1

// topology materializes the config's flat topology fields into the
// Scenario API's pluggable form.
func (c Config) topology() Topology {
	seed := c.TopologySeed
	if seed == 0 {
		seed = defaultTopologySeed
	}
	switch c.Topology {
	case TopoUniform:
		return UniformTopology(c.Nodes, c.Field, seed)
	case TopoClustered:
		clusters := c.Clusters
		if clusters == 0 {
			clusters = 4
		}
		// Spread scales with per-cluster share of the field so clusters
		// stay distinct but internally connected at sensor range.
		return ClusteredTopology(c.Nodes, clusters, c.Field, c.Field/8, seed)
	case TopoLinear:
		return LinearTopology(c.Nodes, c.Field)
	default:
		return GridTopology(c.Nodes, c.Field)
	}
}

// Scenario compiles the flat configuration into a built Scenario. The
// compilation is exact: a fixed-seed run through the compiled scenario
// is byte-identical to the pre-redesign flat-config runner (asserted by
// the golden-fingerprint tests).
//
// The optional extra options apply after the compiled ones, so callers
// can layer non-serializable concerns — WithTrace, most commonly — on
// top of a flat config without leaving the compatibility surface.
func (c Config) Scenario(extra ...Option) (*Scenario, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	sink := SinkPolicy(SinkNearCenter())
	if c.Sink >= 0 {
		sink = SinkAt(c.Sink)
	}
	opts := []Option{
		WithModel(c.Model),
		WithTopology(c.topology()),
		WithSink(sink),
		WithSenders(c.Senders),
		WithSenderPolicy(StableShuffleSenders()),
		WithWorkload(Workload{Traffic: c.Traffic, Rate: c.Rate}),
		WithLinks(LinkModel{SensorLoss: c.SensorLoss, WifiLoss: c.WifiLoss}),
		WithDuration(c.Duration),
		WithSeed(c.Seed),
		WithRadios(c.SensorProfile, c.WifiProfile),
		WithWifiRange(c.WifiRange),
		WithPostBurstLinger(c.PostBurstLinger),
		WithShortcutLearner(c.UseShortcutLearner),
		WithMinGrant(c.MinGrantPackets),
		WithAdaptiveThreshold(c.AdaptiveThresholdAlpha),
		WithDelayBound(c.DelayBound),
	}
	if c.Model == ModelDual {
		opts = append(opts, WithBurst(c.BurstPackets))
	} else {
		// The baseline models validate but never consult the threshold;
		// pin it so flat configs with a zero burst still compile.
		opts = append(opts, WithBurst(1))
	}
	if c.ChurnRate > 0 {
		down := c.ChurnMeanDowntime
		if down == 0 {
			down = time.Minute
		}
		// The schedule varies per seeded repetition like any other noise
		// process, but from a decorrelated stream: seeding it with the
		// run seed verbatim would replay the exact PRNG sequence that
		// drives channel loss, backoff and arrivals.
		opts = append(opts, WithChurn(RandomChurn(c.ChurnRate, down, c.Seed^churnSeedSalt)))
	}
	opts = append(opts, extra...)
	return NewScenario(opts...)
}

// Result carries one run's outcomes.
type Result struct {
	// RunResult holds the metric inputs (TotalEnergy follows the model's
	// charging policy; for the sensor model it is the header-model total).
	// Its PerNode breakdown is populated only for traced runs.
	metrics.RunResult
	// IdealEnergy is the sensor model's total without overhearing
	// charges (equal to TotalEnergy for other models).
	IdealEnergy units.Energy
	// SensorStats and WifiStats are channel-level counters.
	SensorStats, WifiStats radio.Stats
	// AgentStats aggregates BCP counters across nodes (dual model only).
	AgentStats core.Stats
	// Events counts scheduler events processed.
	Events uint64
	// Trace holds the recorded event/sample streams of a traced run
	// (nil otherwise). It is deliberately excluded from the JSON
	// encoding — event streams are exported through the sweep trace
	// exporters, not serialized inside results; PerNode (omitempty,
	// absent when untraced) is the serializable breakdown.
	Trace *trace.Recording `json:"-"`
}

// defaultSink picks the node closest to the field center, matching the
// paper's requirement that the long-range radio reach the sink in one
// hop from everywhere.
func defaultSink(layout *topo.Layout) int {
	cx := units.Meters(0)
	cy := units.Meters(0)
	for i := 0; i < layout.Len(); i++ {
		p := layout.Position(i)
		cx += p.X / units.Meters(float64(layout.Len()))
		cy += p.Y / units.Meters(float64(layout.Len()))
	}
	center := topo.Position{X: cx, Y: cy}
	best, bestD := 0, units.Meters(-1)
	for i := 0; i < layout.Len(); i++ {
		d := topo.Distance(layout.Position(i), center)
		if bestD < 0 || d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// pickSenders returns the stable pseudo-random sender subset of size n
// excluding the sink, under the default permutation seed.
func pickSenders(nodes, sink, n int) []int {
	return pickSendersSeeded(nodes, sink, n, senderPermSeed)
}

// pickSendersSeeded is pickSenders under an explicit permutation seed
// (the shuffled sender policies' engine). The permutation is fixed by
// permSeed alone — independent of the run seed — so sender sets nest
// (the 5-sender set prefixes the 10-sender set) and repeat across
// seeded repetitions.
func pickSendersSeeded(nodes, sink, n int, permSeed int64) []int {
	perm := rand.New(rand.NewSource(permSeed)).Perm(nodes)
	senders := make([]int, 0, n)
	for _, v := range perm {
		if v == sink {
			continue
		}
		senders = append(senders, v)
		if len(senders) == n {
			break
		}
	}
	return senders
}

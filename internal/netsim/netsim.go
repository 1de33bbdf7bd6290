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
// near-center sink, N CBR senders, 5000 s runs (DefaultConfig). A
// Config is the whole description of a run and the wire format of
// sweeps, specs and caches; Config.Validate checks it, and
// Config.Scenario resolves a valid one into a runnable Scenario.
package netsim

import (
	"fmt"
	"math"
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

// Config is the flat, serializable description of one simulation run:
// every setting, validated in one place (Validate). It is the wire
// format of sweeps, JSON specs and caches, and Config.Scenario resolves
// it into a runnable Scenario. Start from DefaultConfig or
// MultiHopConfig and set fields.
//
// Sentinels kept for compatibility: Sink < 0 selects the near-center
// node, and some zero-valued fields (WifiRange, TopologySeed,
// Clusters, ChurnMeanDowntime) select defaults at build time.
type Config struct {
	// Model selects sensor / 802.11 / dual-radio.
	Model Model

	// Nodes and Field define the grid (paper: 36 over 200 m).
	Nodes int
	Field units.Meters

	// Sink is the collection node index, below Nodes; negative selects
	// the node closest to the layout's centroid.
	//
	// The negative sentinel is honored forever so that serialized
	// configs and sweep cache keys keep working.
	Sink int

	// Senders is how many nodes stream traffic to the sink (5-35 in
	// the paper). They come from a pseudo-random permutation fixed
	// independently of the run seed, so the 5-sender set prefixes the
	// 10-sender set and both repeat across seeded repetitions.
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

	// SensorLoss injects random frame loss on the sensor channel: every
	// reception is lost with this probability.
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

	// Topology selects the layout family (TopologyKinds): "" or "grid"
	// (default) places Nodes on the smallest square grid covering a
	// Field x Field area, "uniform" scatters them uniformly at random
	// over it, "clustered" groups them around Clusters hotspots with a
	// Gaussian spread of Field/8, and "linear" spaces them evenly along
	// a corridor Field long. This field and the ones below carry
	// omitempty JSON tags so configurations that do not use them keep
	// their original encoding (and sweep cache keys) byte-for-byte.
	Topology string `json:",omitempty"`

	// TopologySeed fixes the placement of random topologies (uniform,
	// clustered) independently of the run seed, so seeded repetitions
	// share one deployment (the senderPermSeed convention applied to
	// geometry). Zero selects a fixed default placement.
	TopologySeed int64 `json:",omitempty"`

	// Clusters is the hotspot count of the clustered topology, at most
	// Nodes (zero selects 4).
	Clusters int `json:",omitempty"`

	// ChurnRate enables random node churn: the expected number of
	// failures per non-sink node per simulated hour, with exponentially
	// distributed uptimes and downtimes drawn afresh for each run seed.
	// Zero disables churn.
	ChurnRate float64 `json:",omitempty"`

	// ChurnMeanDowntime is the mean outage length under churn
	// (default 60 s).
	ChurnMeanDowntime time.Duration `json:",omitempty"`

	// Messages, when positive, makes each sender a finite transfer: a
	// CBR source that emits exactly this many packets, the first one
	// period in (no random phase), and one period after the last asks
	// its node's BCP agent to flush what is still buffered. Zero runs
	// unbounded. Only CBR traffic can be capped.
	Messages int `json:",omitempty"`
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

// PrototypeConfig returns the paper's Section 4.2 prototype as a finite
// transfer under a model: node 0 sends messages sensor payloads, one
// per interval, to the sink at node 1 10 m away, flushes one interval
// after the last, and the run lasts ten minutes past the flush. The
// dual model buffers threshold bytes, rounded up to whole messages,
// before each burst; the sensor model, the baseline, sends every
// message at once, so its config does not depend on the threshold.
func PrototypeConfig(model Model, threshold units.ByteSize, messages int, interval time.Duration) Config {
	burst := 0
	if model == ModelDual {
		burst = int((threshold + params.SensorPayload - 1) / params.SensorPayload)
	}
	cfg := DefaultConfig(model, 1, burst, 1)
	cfg.Topology, cfg.Nodes, cfg.Field = TopoLinear, 2, 10
	cfg.Sink = 1
	cfg.WifiRange = 10
	// The workload takes a bit rate. A plain division can put its period
	// a nanosecond short of interval (110 ms, for one), so step the rate
	// down until the period is exact.
	cfg.Rate = units.BitRate(float64(params.SensorPayload.Bits()) / interval.Seconds())
	for cfg.Rate.TimeFor(params.SensorPayload) < interval {
		cfg.Rate = units.BitRate(math.Nextafter(float64(cfg.Rate), 0))
	}
	cfg.Duration = time.Duration(messages+1)*interval + 10*time.Minute
	cfg.Messages = messages
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
// "netsim:" prefix). A valid config builds a Scenario unless its
// layout is not connected at the radio range its model routes over.
func (c Config) Validate() error {
	bad := func(field, format string, a ...any) error {
		return fmt.Errorf("netsim: %w", &FieldError{Field: field, Reason: fmt.Sprintf(format, a...)})
	}
	nonFinite := func(x float64) bool { return math.IsNaN(x) || math.IsInf(x, 0) }
	switch {
	case c.Model < ModelSensor || c.Model > ModelDual:
		return bad("Model", "unknown model %d", int(c.Model))
	case c.Nodes < 2:
		return bad("Nodes", "need at least 2 nodes, got %d", c.Nodes)
	case nonFinite(float64(c.Field)):
		return bad("Field", "non-finite field %v", c.Field)
	case c.Field <= 0:
		return bad("Field", "non-positive field %v", c.Field)
	case c.Sink >= c.Nodes:
		return bad("Sink", "sink %d outside [0, %d)", c.Sink, c.Nodes)
	case c.Senders < 1 || c.Senders >= c.Nodes:
		return bad("Senders", "senders %d outside [1, %d)", c.Senders, c.Nodes)
	case nonFinite(float64(c.Rate)):
		return bad("Rate", "non-finite rate %v", c.Rate)
	case c.Rate <= 0:
		return bad("Rate", "non-positive rate %v", c.Rate)
	case c.Duration <= 0:
		return bad("Duration", "non-positive duration %v", c.Duration)
	case c.Model != ModelWifi && c.SensorProfile.Validate() != nil:
		return bad("SensorProfile", "%v", c.SensorProfile.Validate())
	case c.Model != ModelSensor && c.WifiProfile.Validate() != nil:
		return bad("WifiProfile", "%v", c.WifiProfile.Validate())
	case c.Model == ModelDual && c.BurstPackets < 1:
		return bad("BurstPackets", "dual model needs a positive burst size, got %d", c.BurstPackets)
	case math.IsNaN(c.SensorLoss) || c.SensorLoss < 0 || c.SensorLoss >= 1:
		return bad("SensorLoss", "loss probability %v outside [0,1)", c.SensorLoss)
	case math.IsNaN(c.WifiLoss) || c.WifiLoss < 0 || c.WifiLoss >= 1:
		return bad("WifiLoss", "loss probability %v outside [0,1)", c.WifiLoss)
	case nonFinite(float64(c.WifiRange)):
		return bad("WifiRange", "non-finite wifi range %v", c.WifiRange)
	case c.WifiRange < 0:
		return bad("WifiRange", "negative wifi range %v", c.WifiRange)
	case c.PostBurstLinger < 0:
		return bad("PostBurstLinger", "negative post-burst linger %v", c.PostBurstLinger)
	case c.MinGrantPackets < 0:
		return bad("MinGrantPackets", "negative min grant %d", c.MinGrantPackets)
	case nonFinite(c.AdaptiveThresholdAlpha):
		return bad("AdaptiveThresholdAlpha", "non-finite adaptive alpha %v", c.AdaptiveThresholdAlpha)
	case c.AdaptiveThresholdAlpha < 0:
		return bad("AdaptiveThresholdAlpha", "negative adaptive alpha %v", c.AdaptiveThresholdAlpha)
	case c.DelayBound < 0:
		return bad("DelayBound", "negative delay bound %v", c.DelayBound)
	case c.Traffic < TrafficCBR || c.Traffic > TrafficOnOff:
		return bad("Traffic", "unknown traffic model %d", int(c.Traffic))
	case c.Messages < 0:
		return bad("Messages", "negative message count %d", c.Messages)
	case c.Messages > 0 && c.Traffic != TrafficCBR:
		return bad("Messages", "only CBR traffic can be capped at %d messages", c.Messages)
	case c.Clusters < 0:
		return bad("Clusters", "negative cluster count %d", c.Clusters)
	case c.Topology == TopoClustered && c.clusters() > c.Nodes:
		return bad("Clusters", "%d clusters exceed %d nodes", c.clusters(), c.Nodes)
	case nonFinite(c.ChurnRate):
		return bad("ChurnRate", "non-finite churn rate %v", c.ChurnRate)
	case c.ChurnRate < 0:
		return bad("ChurnRate", "negative churn rate %v", c.ChurnRate)
	case c.ChurnMeanDowntime < 0:
		return bad("ChurnMeanDowntime", "negative churn downtime %v", c.ChurnMeanDowntime)
	case c.churnEvents() > maxChurnEvents:
		return bad("ChurnRate", "churn rate %v per hour with mean downtime %v schedules about %.3g events over %v, more than %d",
			c.ChurnRate, c.meanDowntime(), c.churnEvents(), c.Duration, maxChurnEvents)
	}
	switch c.Topology {
	case "", TopoGrid, TopoUniform, TopoClustered, TopoLinear:
	default:
		return bad("Topology", "unknown topology %q (want %v)", c.Topology, TopologyKinds())
	}
	return nil
}

// Topology kind names, as accepted by Config.Topology and sweep specs.
const (
	TopoGrid      = "grid"
	TopoUniform   = "uniform"
	TopoClustered = "clustered"
	TopoLinear    = "linear"
)

// TopologyKinds lists the layout families a Config can select.
func TopologyKinds() []string {
	return []string{TopoGrid, TopoUniform, TopoClustered, TopoLinear}
}

// defaultTopologySeed places random topologies when the config does
// not pin one. It is a fixed constant — not the run seed — so seeded
// repetitions share one deployment and a multi-rep batch cannot
// straddle connected and partitioned layouts.
const defaultTopologySeed = 1

// clusters is the clustered topology's hotspot count.
func (c Config) clusters() int {
	if c.Clusters == 0 {
		return 4
	}
	return c.Clusters
}

// layout places the config's Nodes by its Topology. The random
// families draw from TopologySeed, never from the run seed, so one
// config describes the same deployment across every repetition.
func (c Config) layout() (*topo.Layout, error) {
	seed := c.TopologySeed
	if seed == 0 {
		seed = defaultTopologySeed
	}
	switch c.Topology {
	case TopoUniform:
		return topo.Random(c.Nodes, c.Field, rand.New(rand.NewSource(seed)))
	case TopoClustered:
		// Spread scales with the field so clusters stay distinct but
		// internally connected at sensor range.
		return topo.Clustered(c.Nodes, c.clusters(), c.Field, c.Field/8,
			rand.New(rand.NewSource(seed)))
	case TopoLinear:
		return topo.Line(c.Nodes, c.Field/units.Meters(float64(c.Nodes-1)))
	default:
		return topo.Grid(c.Nodes, c.Field)
	}
}

// Scenario validates the configuration and resolves it into a
// runnable Scenario: the layout its Topology fields place, its Sink
// (or the node nearest the centroid), its stable-shuffle senders and,
// under ChurnRate, the run seed's churn schedule. WithTrace is the one
// option. Besides Validate's FieldErrors, the only failure is a layout
// that is not connected at the radio range the model routes over.
func (c Config) Scenario(opts ...Option) (*Scenario, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	s := &Scenario{cfg: c}
	for _, opt := range opts {
		opt(s)
	}
	if s.cfg.WifiRange == 0 {
		s.cfg.WifiRange = s.cfg.WifiProfile.Range
	}
	layout, err := c.layout()
	if err != nil {
		return nil, err
	}
	sink := c.Sink
	if sink < 0 {
		sink = defaultSink(layout)
	}

	// Catching a partitioned deployment here yields one clear error
	// instead of a routing failure mid-run. The sensor fabric must span
	// the network for the sensor and dual models; the pure-802.11 model
	// only needs connectivity at wifi range.
	reqRange := s.cfg.SensorProfile.Range
	radioName := "sensor"
	if c.Model == ModelWifi {
		reqRange = s.cfg.WifiRange
		radioName = "wifi"
	}
	if !layout.Connected(sink, reqRange) {
		kind := c.Topology
		if kind == "" {
			kind = TopoGrid
		}
		return nil, fmt.Errorf("netsim: %q topology (%d nodes) is not connected at the %s radio's %v range from sink %d; increase density, shrink the field, or try another topology seed",
			kind, layout.Len(), radioName, reqRange, sink)
	}

	s.layout = layout
	s.sinkID = sink
	s.senderIDs = pickSenders(layout.Len(), sink, c.Senders)
	s.churnEvents = c.churnSchedule(layout.Len(), sink)
	return s, nil
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
// excluding the sink. The permutation is fixed by senderPermSeed alone
// — independent of the run seed — so sender sets nest (the 5-sender
// set prefixes the 10-sender set) and repeat across seeded
// repetitions.
func pickSenders(nodes, sink, n int) []int {
	perm := rand.New(rand.NewSource(senderPermSeed)).Perm(nodes)
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

package radio

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"bulktx/internal/energy"
	"bulktx/internal/sim"
	"bulktx/internal/topo"
	"bulktx/internal/units"
)

// Config describes one radio technology instantiated as a channel.
type Config struct {
	// Name labels the channel in logs and stats ("sensor", "802.11").
	Name string
	// Profile supplies rate and power draws for all transceivers on the
	// channel.
	Profile energy.Profile
	// Range overrides the profile's transmission range when positive
	// (the paper gives Lucent 11 Mbps the sensor radio's 40 m range).
	Range units.Meters
	// LossProb is an independent corruption probability applied to every
	// frame reception (channel noise, in addition to collisions).
	LossProb float64
	// LossAt, when non-nil, replaces LossProb with a per-link loss
	// probability computed from the transmitter-receiver distance
	// (e.g. path-loss-shaped noise), clamped to [0, 1]. It must be a
	// pure function of distance: it is evaluated lazily per reception
	// (never as a dense per-pair table, which would be O(N^2) memory),
	// so a stateful model would break run determinism.
	LossAt func(d units.Meters) float64
	// WakeupLatency is the Off -> usable transition time applied by
	// PowerOn. Zero means instant.
	WakeupLatency time.Duration
	// HeaderSize is the technology's frame header; used to charge
	// header-only overhearing.
	HeaderSize units.ByteSize
}

func (c Config) validate() error {
	if err := c.Profile.Validate(); err != nil {
		return err
	}
	switch {
	case c.LossProb < 0 || c.LossProb >= 1:
		return fmt.Errorf("radio: loss probability %v outside [0,1)", c.LossProb)
	case c.Range < 0:
		return fmt.Errorf("radio: negative range %v", c.Range)
	case c.WakeupLatency < 0:
		return fmt.Errorf("radio: negative wakeup latency %v", c.WakeupLatency)
	case c.HeaderSize < 0:
		return fmt.Errorf("radio: negative header size %v", c.HeaderSize)
	}
	return nil
}

// Stats aggregates channel-wide counters.
type Stats struct {
	// Transmissions counts frames put on the air.
	Transmissions uint64
	// Deliveries counts clean frame receptions passed up to MACs.
	Deliveries uint64
	// Collisions counts receptions corrupted by overlapping arrivals.
	Collisions uint64
	// NoiseLosses counts receptions dropped by the random loss model.
	NoiseLosses uint64
	// Overhears counts clean receptions at nodes other than the
	// destination.
	Overhears uint64
}

// Channel is a broadcast medium shared by all transceivers of one radio
// technology. Propagation is a disk of the configured range; propagation
// delay is negligible at the paper's 200 m scale and modelled as zero.
//
// Topology is static: node positions come from the layout fixed at
// NewChannel time. The per-node in-range neighbor sets are resolved
// from a uniform-grid spatial hash (topo.SpatialHash, built in O(N))
// and memoized as sorted rows on first use, so channel construction
// never materializes an O(N^2) table and each transmission walks a
// pre-sorted list in ascending-ID (deterministic) order. If layouts
// ever become mutable, both the hash and the memo must be rebuilt on
// any position change — there is deliberately no invalidation path
// today.
type Channel struct {
	sched  *sim.Scheduler
	cfg    Config
	layout *topo.Layout
	// nodes is a dense table indexed by NodeID; nil means not attached.
	nodes []*Transceiver
	// hash resolves in-range queries.
	hash *topo.SpatialHash
	// neighbors[i] memoizes node i's in-range neighbor IDs (excluding
	// i itself), sorted ascending for deterministic delivery order. nil
	// means not yet computed; computed-but-empty rows hold the
	// noNeighbors sentinel so they are not recomputed.
	neighbors [][]NodeID
	// scratch is the reusable collection buffer for neighbor queries.
	scratch []NodeID
	// arrivals is the free list of finished arrival records, shared by
	// every transceiver on the channel.
	arrivals []*arrival
	stats    Stats
	rng      *rand.Rand
}

// noNeighbors marks a memoized empty neighbor row (distinct from nil =
// not yet computed).
var noNeighbors = []NodeID{}

// NewChannel builds a channel over the given layout. Construction is
// O(N): the spatial hash is built immediately, neighbor rows on demand.
func NewChannel(sched *sim.Scheduler, cfg Config, layout *topo.Layout) (*Channel, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if layout == nil || layout.Len() == 0 {
		return nil, fmt.Errorf("radio: channel %q needs a non-empty layout", cfg.Name)
	}
	if cfg.Range == 0 {
		cfg.Range = cfg.Profile.Range
	}
	return &Channel{
		sched:     sched,
		cfg:       cfg,
		layout:    layout,
		nodes:     make([]*Transceiver, layout.Len()),
		hash:      topo.NewSpatialHash(layout, cfg.Range),
		neighbors: make([][]NodeID, layout.Len()),
		rng:       sched.Rand(),
	}, nil
}

// lossProb returns the noise-loss probability of the src->dst link:
// the distance model evaluated on the link length when configured
// (clamped to [0, 1]), the flat LossProb otherwise.
func (c *Channel) lossProb(src, dst NodeID) float64 {
	if c.cfg.LossAt == nil {
		return c.cfg.LossProb
	}
	p := c.cfg.LossAt(topo.Distance(c.layout.Position(int(src)), c.layout.Position(int(dst))))
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// neighborsOf returns node id's sorted in-range neighbor row, resolving
// and memoizing it on first use. Spatial-hash queries report the exact
// brute-force in-range set; the sort restores ascending IDs.
func (c *Channel) neighborsOf(id NodeID) []NodeID {
	if row := c.neighbors[id]; row != nil {
		return row
	}
	c.scratch = c.scratch[:0]
	c.hash.EachInRange(int(id), c.cfg.Range, func(j int) {
		c.scratch = append(c.scratch, NodeID(j))
	})
	if len(c.scratch) == 0 {
		c.neighbors[id] = noNeighbors
		return noNeighbors
	}
	slices.Sort(c.scratch)
	row := slices.Clone(c.scratch)
	c.neighbors[id] = row
	return row
}

// getArrival hands out a recycled arrival (or mints one with its finish
// closure bound) with a.t set to the receiving transceiver.
func (c *Channel) getArrival(t *Transceiver) *arrival {
	var a *arrival
	if n := len(c.arrivals); n > 0 {
		a = c.arrivals[n-1]
		c.arrivals = c.arrivals[:n-1]
	} else {
		a = &arrival{}
		a.fin = func() { a.t.finishArrival(a) }
	}
	a.t = t
	return a
}

// putArrival clears an arrival and returns it to the free list.
func (c *Channel) putArrival(a *arrival) {
	*a = arrival{fin: a.fin}
	c.arrivals = append(c.arrivals, a)
}

// Config returns the channel configuration (with resolved range).
func (c *Channel) Config() Config { return c.cfg }

// Stats returns a snapshot of the channel counters.
func (c *Channel) Stats() Stats { return c.stats }

// Rate returns the channel bit rate.
func (c *Channel) Rate() units.BitRate { return c.cfg.Profile.Rate }

// Airtime returns the on-air duration of size bytes on this channel.
func (c *Channel) Airtime(size units.ByteSize) time.Duration {
	return c.cfg.Profile.Rate.TimeFor(size)
}

// Len returns the number of layout slots on the channel (attached or
// not); valid NodeIDs are [0, Len).
func (c *Channel) Len() int { return len(c.nodes) }

// Lookup returns the transceiver attached under id, if any. IDs outside
// the layout safely report false.
func (c *Channel) Lookup(id NodeID) (*Transceiver, bool) {
	if int(id) < 0 || int(id) >= len(c.nodes) {
		return nil, false
	}
	t := c.nodes[id]
	return t, t != nil
}

// InRange reports whether two attached nodes are within radio range.
func (c *Channel) InRange(a, b NodeID) bool {
	return topo.InRange(c.layout.Position(int(a)), c.layout.Position(int(b)), c.cfg.Range)
}

// Neighbors returns node id's in-range neighbor IDs, sorted ascending
// (attached or not), resolving the row on first use. The slice is
// shared; callers must not mutate it.
func (c *Channel) Neighbors(id NodeID) []NodeID {
	if int(id) < 0 || int(id) >= len(c.neighbors) {
		return nil
	}
	return c.neighborsOf(id)
}

// start transmits f from the transceiver, delivering arrivals to every
// in-range node. Called by Transceiver.Transmit after state checks.
// The memoized neighbor row makes this a single allocation-free walk
// in ascending-ID (deterministic) order after the first transmission
// from a node.
func (c *Channel) start(f Frame) {
	c.stats.Transmissions++
	airtime := c.Airtime(f.Size)
	for _, id := range c.neighborsOf(f.Src) {
		if rx := c.nodes[id]; rx != nil {
			rx.arrive(f, airtime)
		}
	}
}

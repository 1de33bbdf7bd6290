// Package workload generates the evaluation traffic of Section 4.1:
// constant-bit-rate senders streaming fixed-size sensor packets toward a
// sink, plus the sink-side recorder that turns deliveries into the
// metrics inputs (delivered bits, per-packet delays).
package workload

import (
	"fmt"
	"time"

	"bulktx/internal/core"
	"bulktx/internal/sim"
	"bulktx/internal/units"
)

// CBR is a constant-bit-rate packet source. Senders start with a random
// phase offset within one packet interval so that simultaneous sources do
// not synchronize their generation instants.
type CBR struct {
	sched   *sim.Scheduler
	src     int
	dst     int
	payload units.ByteSize
	period  time.Duration
	emit    func(core.Packet)

	seq       uint64
	generated uint64
	running   bool
	timer     sim.Timer

	// limit, when positive, caps the packets generated; done runs on
	// the tick after the last of them.
	limit uint64
	done  func()
}

// NewCBR builds a source generating rate bits per second of payload from
// src to dst, delivered to emit (typically the node's BCP agent or
// forwarder).
func NewCBR(
	sched *sim.Scheduler,
	src, dst int,
	rate units.BitRate,
	payload units.ByteSize,
	emit func(core.Packet),
) (*CBR, error) {
	if rate <= 0 {
		return nil, fmt.Errorf("workload: non-positive rate %v", rate)
	}
	if payload <= 0 {
		return nil, fmt.Errorf("workload: non-positive payload %v", payload)
	}
	if emit == nil {
		return nil, fmt.Errorf("workload: nil emit")
	}
	period := rate.TimeFor(payload)
	if period <= 0 {
		return nil, fmt.Errorf("workload: rate %v too fast for payload %v", rate, payload)
	}
	g := &CBR{
		sched:   sched,
		src:     src,
		dst:     dst,
		payload: payload,
		period:  period,
		emit:    emit,
	}
	g.timer.Init(sched, sim.Func(g.tick))
	return g, nil
}

// Period returns the inter-packet generation interval.
func (g *CBR) Period() time.Duration { return g.period }

// Start begins generation with a random phase within one period.
func (g *CBR) Start() {
	g.StartWithin(g.period)
}

// StartWithin begins generation with a random phase within the given
// window (at least one period). Staggering senders across a window the
// size of one burst-accumulation interval prevents every BCP sender from
// crossing its threshold at the same instant, which no real deployment
// exhibits.
func (g *CBR) StartWithin(window time.Duration) {
	if g.running {
		return
	}
	if window < g.period {
		window = g.period
	}
	g.running = true
	phase := time.Duration(g.sched.Rand().Int63n(int64(window)))
	g.timer.Reset(phase)
}

// StartCapped begins a finite transfer of exactly n packets, the first
// one period in with no random phase. On the tick after the last packet
// the source stops and calls done (when non-nil), e.g. to flush a
// buffering agent.
func (g *CBR) StartCapped(n int, done func()) {
	if g.running || n < 1 {
		return
	}
	g.running = true
	g.limit, g.done = uint64(n), done
	g.timer.Reset(g.period)
}

// Stop halts generation.
func (g *CBR) Stop() {
	g.running = false
	g.timer.Stop()
}

// Generated returns packets and payload bits produced so far.
func (g *CBR) Generated() (packets uint64, bits int64) {
	return g.generated, int64(g.generated) * g.payload.Bits()
}

func (g *CBR) tick() {
	if !g.running {
		return
	}
	if g.limit > 0 && g.generated == g.limit {
		g.running = false
		if g.done != nil {
			g.done()
		}
		return
	}
	g.seq++
	g.generated++
	g.emit(core.Packet{
		Src:     g.src,
		Dst:     g.dst,
		Seq:     g.seq,
		Size:    g.payload,
		Created: g.sched.Now(),
	})
	g.timer.Reset(g.period)
}

// Recorder accumulates sink-side deliveries.
type Recorder struct {
	sched *sim.Scheduler

	deliveredBits    int64
	deliveredPackets uint64
	delays           []time.Duration
}

// NewRecorder builds a sink recorder.
func NewRecorder(sched *sim.Scheduler) *Recorder {
	return &Recorder{sched: sched}
}

// Receive records one delivered packet.
func (r *Recorder) Receive(p core.Packet) {
	r.deliveredPackets++
	r.deliveredBits += p.Size.Bits()
	r.delays = append(r.delays, r.sched.Now()-p.Created)
}

// DeliveredBits returns payload bits received so far.
func (r *Recorder) DeliveredBits() int64 { return r.deliveredBits }

// DeliveredPackets returns packets received so far.
func (r *Recorder) DeliveredPackets() uint64 { return r.deliveredPackets }

// TakeDelays hands the recorded per-packet delays over to the caller
// and forgets them, so later deliveries start a new record instead of
// writing into the returned slice. With no deliveries it returns an
// empty slice, not nil.
func (r *Recorder) TakeDelays() []time.Duration {
	d := r.delays
	r.delays = nil
	if d == nil {
		d = []time.Duration{}
	}
	return d
}

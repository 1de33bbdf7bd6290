package workload

import (
	"fmt"
	"math"
	"time"

	"bulktx/internal/core"
	"bulktx/internal/sim"
	"bulktx/internal/units"
)

// Beyond the paper's CBR evaluation traffic, two further source models
// exercise BCP under realistic arrival processes: Poisson (memoryless
// event detection) and OnOff (EnviroMic-style acoustic events: silence
// punctuated by high-rate recording bursts).

// Poisson is a packet source with exponentially distributed
// inter-arrival times averaging the configured rate.
type Poisson struct {
	sched   *sim.Scheduler
	src     int
	dst     int
	payload units.ByteSize
	mean    time.Duration
	emit    func(core.Packet)

	seq       uint64
	generated uint64
	running   bool
	timer     sim.Timer
}

// NewPoisson builds a Poisson source averaging rate bits per second.
func NewPoisson(
	sched *sim.Scheduler,
	src, dst int,
	rate units.BitRate,
	payload units.ByteSize,
	emit func(core.Packet),
) (*Poisson, error) {
	if rate <= 0 {
		return nil, fmt.Errorf("workload: non-positive rate %v", rate)
	}
	if payload <= 0 {
		return nil, fmt.Errorf("workload: non-positive payload %v", payload)
	}
	if emit == nil {
		return nil, fmt.Errorf("workload: nil emit")
	}
	mean := rate.TimeFor(payload)
	if mean <= 0 {
		return nil, fmt.Errorf("workload: rate %v too fast for payload %v", rate, payload)
	}
	g := &Poisson{
		sched:   sched,
		src:     src,
		dst:     dst,
		payload: payload,
		mean:    mean,
		emit:    emit,
	}
	g.timer.Init(sched, sim.Func(g.tick))
	return g, nil
}

// Start begins generation.
func (g *Poisson) Start() {
	if g.running {
		return
	}
	g.running = true
	g.timer.Reset(g.nextGap())
}

// Stop halts generation.
func (g *Poisson) Stop() {
	g.running = false
	g.timer.Stop()
}

// Generated returns packets and payload bits produced so far.
func (g *Poisson) Generated() (packets uint64, bits int64) {
	return g.generated, int64(g.generated) * g.payload.Bits()
}

func (g *Poisson) nextGap() time.Duration {
	// Inverse-CDF sampling of Exp(1/mean); clamp u away from 0 so the
	// logarithm stays finite.
	u := g.sched.Rand().Float64()
	if u < 1e-12 {
		u = 1e-12
	}
	return time.Duration(-math.Log(u) * float64(g.mean))
}

func (g *Poisson) tick() {
	if !g.running {
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
	g.timer.Reset(g.nextGap())
}

// OnOff alternates exponentially distributed ON periods, during which it
// streams CBR packets at a peak rate, with exponentially distributed OFF
// silences — the shape of event-triggered acoustic capture.
type OnOff struct {
	sched   *sim.Scheduler
	src     int
	dst     int
	payload units.ByteSize
	period  time.Duration // packet spacing while ON
	meanOn  time.Duration
	meanOff time.Duration
	emit    func(core.Packet)

	seq       uint64
	generated uint64
	running   bool
	on        bool
	onUntil   sim.Time
	timer     sim.Timer
}

// NewOnOff builds an on/off source: peakRate while ON, with mean ON and
// OFF durations.
func NewOnOff(
	sched *sim.Scheduler,
	src, dst int,
	peakRate units.BitRate,
	payload units.ByteSize,
	meanOn, meanOff time.Duration,
	emit func(core.Packet),
) (*OnOff, error) {
	if peakRate <= 0 {
		return nil, fmt.Errorf("workload: non-positive peak rate %v", peakRate)
	}
	if payload <= 0 {
		return nil, fmt.Errorf("workload: non-positive payload %v", payload)
	}
	if meanOn <= 0 || meanOff < 0 {
		return nil, fmt.Errorf("workload: invalid on/off durations %v/%v", meanOn, meanOff)
	}
	if emit == nil {
		return nil, fmt.Errorf("workload: nil emit")
	}
	period := peakRate.TimeFor(payload)
	if period <= 0 {
		return nil, fmt.Errorf("workload: peak rate %v too fast for payload %v", peakRate, payload)
	}
	g := &OnOff{
		sched:   sched,
		src:     src,
		dst:     dst,
		payload: payload,
		period:  period,
		meanOn:  meanOn,
		meanOff: meanOff,
		emit:    emit,
	}
	g.timer.Init(sched, sim.Func(g.tick))
	return g, nil
}

// Start begins in an OFF silence of random length.
func (g *OnOff) Start() {
	if g.running {
		return
	}
	g.running = true
	g.on = false
	g.timer.Reset(g.expSample(g.meanOff))
}

// Stop halts generation.
func (g *OnOff) Stop() {
	g.running = false
	g.timer.Stop()
}

// Generated returns packets and payload bits produced so far.
func (g *OnOff) Generated() (packets uint64, bits int64) {
	return g.generated, int64(g.generated) * g.payload.Bits()
}

// On reports whether the source is currently in an ON period.
func (g *OnOff) On() bool { return g.on }

func (g *OnOff) expSample(mean time.Duration) time.Duration {
	if mean <= 0 {
		return 0
	}
	u := g.sched.Rand().Float64()
	if u < 1e-12 {
		u = 1e-12
	}
	return time.Duration(-math.Log(u) * float64(mean))
}

func (g *OnOff) tick() {
	if !g.running {
		return
	}
	if !g.on {
		// Silence over: start an ON period.
		g.on = true
		g.onUntil = g.sched.Now() + g.expSample(g.meanOn)
	}
	if g.sched.Now() >= g.onUntil {
		// ON period over: fall silent.
		g.on = false
		g.timer.Reset(g.expSample(g.meanOff))
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

package radio

import (
	"errors"
	"fmt"

	"bulktx/internal/energy"
	"bulktx/internal/sim"
)

// OverhearPolicy selects how a transceiver is charged for receptions not
// addressed to it. The paper's evaluation uses all three: the ideal
// sensor model overhears for free, the "Sensor-header" model pays for
// packet headers, and the 802.11 radios pay in full.
type OverhearPolicy int

// Overhearing policies.
const (
	// OverhearFull keeps the radio in Rx for the whole overheard frame.
	OverhearFull OverhearPolicy = iota + 1
	// OverhearHeaderOnly charges reception of the frame header only.
	OverhearHeaderOnly
	// OverhearFree charges nothing for overheard frames.
	OverhearFree
)

// Errors returned by transceiver operations.
var (
	// ErrRadioOff indicates a transmit attempt while the radio is off or
	// still waking up.
	ErrRadioOff = errors.New("radio: transceiver is off")
	// ErrRadioBusy indicates a transmit attempt while a transmission is
	// already in progress, or a power-off during transmission.
	ErrRadioBusy = errors.New("radio: transceiver is busy transmitting")
	// ErrAlreadyAttached indicates a duplicate Attach for a node ID.
	ErrAlreadyAttached = errors.New("radio: node already attached")
)

// arrival tracks one incoming frame at a receiver. Finished arrivals
// return to the channel's free list: each carries a finish closure
// bound once at first allocation (dispatching through the t field,
// which is set at checkout), so steady-state reception neither
// allocates the struct nor a new completion callback.
type arrival struct {
	fin      func() // bound once: t.finishArrival(this)
	t        *Transceiver
	frame    Frame
	forMe    bool
	chargeRx bool
	corrupt  bool
	aborted  bool
}

// Transceiver is one node's interface to a Channel: a half-duplex radio
// with power states, energy metering and collision-aware reception.
type Transceiver struct {
	ch    *Channel
	id    NodeID
	meter *energy.Meter

	overhear OverhearPolicy

	on           bool
	waking       bool
	failed       bool
	resumeWake   bool
	transmitting bool
	arrivals     []*arrival
	lastBusyEnd  sim.Time

	// txFrame is the frame currently on the air; finishTxFn completes it.
	// A transceiver is half-duplex with at most one transmission in
	// flight (Transmit returns ErrRadioBusy otherwise), so one slot
	// suffices and the completion closure is bound once at Attach.
	txFrame    Frame
	finishTxFn func()

	wakeTimer sim.Timer
	observer  func(Event)

	onReceive func(Frame)
	onTxDone  func(Frame)
	onWake    func()
}

// Attach creates a transceiver for node id on the channel. Sensor radios
// are attached powered on (startOn=true); high-power radios start off.
// IDs outside the layout are rejected, keeping every later dense-table
// access bounds-safe.
func (c *Channel) Attach(id NodeID, overhear OverhearPolicy, startOn bool) (*Transceiver, error) {
	if int(id) < 0 || int(id) >= len(c.nodes) {
		return nil, fmt.Errorf("radio: node %d outside layout of %d nodes", id, len(c.nodes))
	}
	if c.nodes[id] != nil {
		return nil, fmt.Errorf("%w: node %d on channel %q", ErrAlreadyAttached, id, c.cfg.Name)
	}
	t := &Transceiver{
		ch:       c,
		id:       id,
		meter:    energy.NewMeter(c.cfg.Profile, c.sched.Now),
		overhear: overhear,
	}
	t.wakeTimer.Init(c.sched, t.completeWake)
	t.finishTxFn = t.finishTx
	if startOn {
		t.on = true
		t.meter.Transition(energy.Idle)
	}
	c.nodes[id] = t
	return t, nil
}

// ID returns the node ID on the channel.
func (t *Transceiver) ID() NodeID { return t.id }

// Meter exposes the transceiver's energy meter.
func (t *Transceiver) Meter() *energy.Meter { return t.meter }

// Channel returns the channel the transceiver is attached to.
func (t *Transceiver) Channel() *Channel { return t.ch }

// SetOnReceive registers the clean-reception callback (MAC layer).
func (t *Transceiver) SetOnReceive(fn func(Frame)) { t.onReceive = fn }

// SetOnTxDone registers the transmission-complete callback.
func (t *Transceiver) SetOnTxDone(fn func(Frame)) { t.onTxDone = fn }

// SetOnWake registers the callback fired when PowerOn completes.
func (t *Transceiver) SetOnWake(fn func()) { t.onWake = fn }

// On reports whether the radio is powered and usable (not waking up or
// crashed).
func (t *Transceiver) On() bool { return t.on && !t.failed }

// Waking reports whether the radio is mid wake-up transition.
func (t *Transceiver) Waking() bool { return t.waking }

// Failed reports whether the node is currently crashed (see SetFailed).
func (t *Transceiver) Failed() bool { return t.failed }

// SetFailed crashes (down=true) or recovers (down=false) the node — the
// churn model's hook. While failed the transceiver neither hears nor
// transmits, On reports false, PowerOn is a no-op and the meter sits in
// Off. Failing aborts in-progress receptions; an in-flight transmission
// is not recalled (its energy is already on the air at the receivers)
// but the transmitter stops charging for it. Recovery restores the
// pre-failure power state: always-on radios resume listening, radios
// that were off stay off until the protocol powers them up again.
func (t *Transceiver) SetFailed(down bool) {
	if t.failed == down {
		return
	}
	t.failed = down
	if down {
		// A wake-up in flight dies with the crash but is remembered:
		// recovery reboots the radio and restarts the wake, so protocol
		// logic parked on the onWake callback (e.g. a BCP burst waiting
		// for the 802.11 radio) is eventually released instead of
		// deadlocking for the rest of the run.
		t.resumeWake = t.resumeWake || t.waking
		t.wakeTimer.Stop()
		t.waking = false
		for _, a := range t.arrivals {
			a.aborted = true
		}
		t.arrivals = t.arrivals[:0]
		t.noteIdle()
		t.updateMeterState()
		return
	}
	t.noteIdle()
	t.updateMeterState()
	if t.resumeWake {
		t.resumeWake = false
		t.PowerOn()
	}
}

// Busy reports carrier sense: a transmission in progress or energy on the
// channel at this receiver.
func (t *Transceiver) Busy() bool {
	return t.transmitting || len(t.arrivals) > 0
}

// IdleFor returns how long the medium has been continuously idle at this
// transceiver, and false while it is busy. The DCF MAC uses it to enforce
// the DIFS idle requirement that protects SIFS-spaced acknowledgements.
func (t *Transceiver) IdleFor() (sim.Time, bool) {
	if t.Busy() {
		return 0, false
	}
	return t.ch.sched.Now() - t.lastBusyEnd, true
}

// noteIdle records the end of channel activity for IdleFor.
func (t *Transceiver) noteIdle() {
	if !t.Busy() {
		t.lastBusyEnd = t.ch.sched.Now()
	}
}

// PowerOn starts the off->on transition, charging the profile's wake-up
// energy and becoming usable after the channel's wake-up latency. It is a
// no-op when already on or waking.
func (t *Transceiver) PowerOn() {
	if t.failed {
		// The crashed node cannot wake now, but the request survives the
		// outage: the recovery reboot starts the wake-up.
		t.resumeWake = true
		return
	}
	if t.on || t.waking {
		return
	}
	t.meter.Transition(energy.WakingUp)
	t.observe(EventWakeupStart, 0)
	if t.ch.cfg.WakeupLatency == 0 {
		t.completeWake()
		return
	}
	t.waking = true
	t.wakeTimer.Reset(t.ch.cfg.WakeupLatency)
}

func (t *Transceiver) completeWake() {
	t.waking = false
	t.on = true
	t.updateMeterState()
	t.observe(EventPowerOn, 0)
	if t.onWake != nil {
		t.onWake()
	}
}

// PowerOff turns the radio off, aborting any in-progress receptions. It
// returns ErrRadioBusy if a transmission is in flight.
func (t *Transceiver) PowerOff() error {
	if t.transmitting {
		return fmt.Errorf("%w: node %d cannot power off mid-transmission", ErrRadioBusy, t.id)
	}
	wasActive := t.on || t.waking
	t.wakeTimer.Stop()
	t.waking = false
	t.resumeWake = false // an explicit shutdown cancels any pending reboot wake
	t.on = false
	if wasActive {
		t.observe(EventPowerOff, 0)
	}
	for _, a := range t.arrivals {
		a.aborted = true
	}
	t.arrivals = t.arrivals[:0]
	t.noteIdle()
	t.meter.Transition(energy.Off)
	return nil
}

// Transmit puts f on the air. The caller (MAC) is responsible for carrier
// sensing; transmitting while receiving is allowed and corrupts the
// in-progress receptions (half-duplex radio).
func (t *Transceiver) Transmit(f Frame) error {
	if !t.on || t.failed {
		return fmt.Errorf("%w: node %d", ErrRadioOff, t.id)
	}
	if t.transmitting {
		return fmt.Errorf("%w: node %d", ErrRadioBusy, t.id)
	}
	f.Src = t.id
	for _, a := range t.arrivals {
		a.corrupt = true
	}
	t.transmitting = true
	t.txFrame = f
	t.updateMeterState()
	t.observe(EventTxStart, f.Size)
	t.ch.start(f)
	t.ch.sched.After(t.ch.Airtime(f.Size), t.finishTxFn)
	return nil
}

func (t *Transceiver) finishTx() {
	f := t.txFrame
	t.txFrame = Frame{}
	t.transmitting = false
	t.noteIdle()
	t.updateMeterState()
	t.observe(EventTxEnd, f.Size)
	if t.onTxDone != nil {
		t.onTxDone(f)
	}
}

// arrive begins reception of a frame lasting airtime. Called by the
// channel for every in-range transceiver.
func (t *Transceiver) arrive(f Frame, airtime sim.Time) {
	if !t.on || t.failed {
		return // off, waking or crashed radios do not hear anything
	}
	a := t.ch.getArrival(t)
	a.frame = f
	a.forMe = f.Dst == t.id || f.Dst == Broadcast
	a.chargeRx = a.forMe || t.overhear == OverhearFull
	if t.transmitting {
		a.corrupt = true // half-duplex: own transmission drowns the arrival
	}
	if len(t.arrivals) > 0 {
		a.corrupt = true
		for _, other := range t.arrivals {
			other.corrupt = true
		}
	}
	t.arrivals = append(t.arrivals, a)
	t.updateMeterState()
	if a.chargeRx {
		t.observe(EventRxStart, f.Size)
	}
	t.ch.sched.After(airtime, a.fin)
}

// finishArrival runs exactly once per arrival (aborted ones included)
// and returns it to the channel's free list.
func (t *Transceiver) finishArrival(a *arrival) {
	if a.aborted {
		t.ch.putArrival(a)
		return
	}
	for i, cur := range t.arrivals {
		if cur == a {
			t.arrivals = append(t.arrivals[:i], t.arrivals[i+1:]...)
			break
		}
	}
	t.noteIdle()
	t.updateMeterState()
	if a.chargeRx {
		t.observe(EventRxEnd, a.frame.Size)
	}

	if !a.forMe && t.overhear == OverhearHeaderOnly {
		// Charged whether or not the frame decoded: the radio listened to
		// the header either way. The cost lands in the Overhear ledger so
		// evaluation models can separate it from useful reception.
		headerAirtime := t.ch.Airtime(t.ch.cfg.HeaderSize)
		t.meter.ChargeEnergy(energy.Overhear, t.ch.cfg.Profile.Rx.Over(headerAirtime))
	}
	// Copy the outcome out and recycle the arrival before dispatching:
	// the receive callback may transitively start new receptions at this
	// transceiver, and the freed arrival must be reusable by then.
	frame, corrupt, forMe := a.frame, a.corrupt, a.forMe
	t.ch.putArrival(a)
	if corrupt {
		t.ch.stats.Collisions++
		return
	}
	if p := t.ch.lossProb(frame.Src, t.id); p > 0 && t.ch.rng.Float64() < p {
		t.ch.stats.NoiseLosses++
		return
	}
	if !forMe {
		t.ch.stats.Overhears++
		return
	}
	t.ch.stats.Deliveries++
	if t.onReceive != nil {
		t.onReceive(frame)
	}
}

// updateMeterState recomputes the meter state from the radio's activity.
func (t *Transceiver) updateMeterState() {
	switch {
	case t.failed:
		t.meter.Transition(energy.Off)
	case !t.on && t.waking:
		t.meter.Transition(energy.WakingUp)
	case !t.on:
		t.meter.Transition(energy.Off)
	case t.transmitting:
		t.meter.Transition(energy.Tx)
	case t.charging():
		t.meter.Transition(energy.Rx)
	default:
		t.meter.Transition(energy.Idle)
	}
}

func (t *Transceiver) charging() bool {
	for _, a := range t.arrivals {
		if a.chargeRx {
			return true
		}
	}
	return false
}

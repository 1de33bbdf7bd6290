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

// reception is one frame arriving at one receiver, held by value in
// the transmitter's rxBatch; the transmitter's completion event ends
// it. Receivers keep no list of their receptions to mark. Instead each
// keeps two epochs: rxEpoch moves whenever everything it is receiving
// gets corrupted (an overlapping arrival, or its own transmission), and
// abortEpoch whenever everything it is receiving is aborted (power-off
// or crash). A reception records both when it starts and compares them
// when it ends. The 32-bit epochs could only alias after 2^32 moves
// within one frame's airtime.
type reception struct {
	rx         NodeID
	forMe      bool
	chargeRx   bool
	corrupt    bool // corrupt from the start
	rxEpoch    uint32
	abortEpoch uint32
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
	lastBusyEnd  sim.Time

	// rxActive counts the receptions in progress at this radio and
	// rxCharged those of them that keep it in Rx; rxEpoch and
	// abortEpoch are the epochs described at reception.
	rxActive   int
	rxCharged  int
	rxEpoch    uint32
	abortEpoch uint32

	// txFrame is the frame currently on the air and rxBatch its
	// receptions in ascending receiver ID; endTxTimer is the single
	// event that completes them and then the transmission. A transceiver
	// is half-duplex with at most one transmission in flight (Transmit
	// returns ErrRadioBusy otherwise), so one slot suffices, and txFrame
	// stays fixed until finishTx.
	txFrame    Frame
	rxBatch    []reception
	endTxTimer sim.Timer

	wakeTimer sim.Timer

	upper Upper
	waker Waker
}

// Upper is the layer bound over a transceiver (its MAC). It takes the
// frames the radio receives cleanly and the end of each of the radio's
// own transmissions.
type Upper interface {
	Receive(f Frame)
	TxDone(f Frame)
}

// Waker takes the end of a transceiver's power-up (see PowerOn).
type Waker interface {
	Woke()
}

// xcvrTimers is a Transceiver seen as the sim.Handler of its own
// timers: the conversion allocates nothing, where binding a method
// value would allocate a closure per timer.
type xcvrTimers Transceiver

// OnTimer runs the expiry of one of the transceiver's timers.
func (h *xcvrTimers) OnTimer(tm *sim.Timer) {
	t := (*Transceiver)(h)
	switch tm {
	case &t.endTxTimer:
		t.endTx()
	case &t.wakeTimer:
		t.completeWake()
	}
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
		meter:    energy.NewMeter(c.cfg.Profile, c.sched.Clock()),
		overhear: overhear,
	}
	t.wakeTimer.Init(c.sched, (*xcvrTimers)(t))
	t.endTxTimer.Init(c.sched, (*xcvrTimers)(t))
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

// SetUpper binds the layer that takes the radio's receptions and
// transmit completions (nil drops them).
func (t *Transceiver) SetUpper(u Upper) { t.upper = u }

// SetWaker binds the handler told when PowerOn completes (nil for
// none).
func (t *Transceiver) SetWaker(w Waker) { t.waker = w }

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
		// logic parked on the Waker (e.g. a BCP burst waiting
		// for the 802.11 radio) is eventually released instead of
		// deadlocking for the rest of the run.
		t.resumeWake = t.resumeWake || t.waking
		t.wakeTimer.Stop()
		t.waking = false
		t.abortReceptions()
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
	return t.transmitting || t.rxActive > 0
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
	if t.waker != nil {
		t.waker.Woke()
	}
}

// PowerOff turns the radio off, aborting any in-progress receptions. It
// returns ErrRadioBusy if a transmission is in flight.
func (t *Transceiver) PowerOff() error {
	if t.transmitting {
		return fmt.Errorf("%w: node %d cannot power off mid-transmission", ErrRadioBusy, t.id)
	}
	t.wakeTimer.Stop()
	t.waking = false
	t.resumeWake = false // an explicit shutdown cancels any pending reboot wake
	t.on = false
	t.abortReceptions()
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
	if t.rxActive > 0 {
		t.rxEpoch++ // half-duplex: corrupts every reception in progress
	}
	t.transmitting = true
	t.txFrame = f
	t.updateMeterState()
	t.ch.start(t)
	return nil
}

// endTx is the transmission's completion event: it ends every
// reception of the frame in ascending receiver ID, aborted ones
// included, then the transmission itself. Each reception is counted as
// an executed event, as if it had been scheduled on its own. A receive
// callback that transmits corrupts the receptions still pending in the
// batch, exactly as it would between separate events.
func (t *Transceiver) endTx() {
	t.ch.sched.CountFolded(len(t.rxBatch))
	// t is transmitting until finishTx, so no callback can append to
	// rxBatch or change txFrame during the walk.
	nodes := t.ch.nodes
	for i := range t.rxBatch {
		r := &t.rxBatch[i]
		nodes[r.rx].endReception(r, &t.txFrame)
	}
	t.rxBatch = t.rxBatch[:0]
	t.finishTx()
}

func (t *Transceiver) finishTx() {
	f := t.txFrame
	t.txFrame = Frame{}
	t.transmitting = false
	t.noteIdle()
	t.updateMeterState()
	if t.upper != nil {
		t.upper.TxDone(f)
	}
}

// arrive begins reception of f and returns it, or false when the
// radio cannot hear. Called by the channel for every in-range
// transceiver; the transmitter's completion event ends the reception.
func (t *Transceiver) arrive(f *Frame) (reception, bool) {
	if !t.on || t.failed {
		return reception{}, false // off, waking or crashed radios do not hear anything
	}
	// Half-duplex: the radio's own transmission drowns the arrival.
	r := reception{rx: t.id, forMe: f.Dst == t.id || f.Dst == Broadcast, corrupt: t.transmitting}
	r.chargeRx = r.forMe || t.overhear == OverhearFull
	if t.rxActive > 0 {
		// The arrival collides with every reception in progress.
		r.corrupt = true
		t.rxEpoch++
	}
	r.rxEpoch, r.abortEpoch = t.rxEpoch, t.abortEpoch
	t.rxActive++
	if r.chargeRx {
		t.rxCharged++
	}
	t.updateMeterState()
	return r, true
}

// endReception ends reception r of frame f at t. It runs exactly once
// per reception; an aborted one ends without effect.
func (t *Transceiver) endReception(r *reception, f *Frame) {
	if r.abortEpoch != t.abortEpoch {
		return
	}
	t.rxActive--
	if r.chargeRx {
		t.rxCharged--
	}
	t.noteIdle()
	t.updateMeterState()

	if !r.forMe && t.overhear == OverhearHeaderOnly {
		// Charged whether or not the frame decoded: the radio listened to
		// the header either way. The cost lands in the Overhear ledger so
		// evaluation models can separate it from useful reception.
		t.meter.ChargeEnergy(energy.Overhear, t.ch.headerCharge)
	}
	if r.corrupt || r.rxEpoch != t.rxEpoch {
		t.ch.stats.Collisions++
		return
	}
	if p := t.ch.cfg.LossProb; p > 0 && t.ch.rng.Float64() < p {
		t.ch.stats.NoiseLosses++
		return
	}
	if !r.forMe {
		t.ch.stats.Overhears++
		return
	}
	t.ch.stats.Deliveries++
	if t.upper != nil {
		t.upper.Receive(*f)
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
	case t.rxCharged > 0:
		t.meter.Transition(energy.Rx)
	default:
		t.meter.Transition(energy.Idle)
	}
}

// abortReceptions aborts every reception in progress: each ends without
// effect when its transmission completes.
func (t *Transceiver) abortReceptions() {
	t.abortEpoch++
	t.rxActive, t.rxCharged = 0, 0
}

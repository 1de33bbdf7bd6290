// Package mac implements the two link layers of the paper's evaluation:
// a CSMA MAC for the sensor radio ("a simpler MAC layer that complies
// with MAC protocols for sensor platforms (e.g., no RTS/CTS)") and an
// IEEE 802.11-DCF-style MAC for the high-power radio (DIFS/SIFS timing,
// binary exponential backoff, link-layer acknowledgements, retry limit).
//
// Both are instances of one contention state machine differing only in
// their timing constants; neither uses RTS/CTS. The DCF model simplifies
// the standard in one documented way: backoff slots are not frozen while
// the medium is busy — the station re-samples a full backoff instead.
// Under the paper's traffic loads the observable effect (collision rate
// growth with contention) is preserved.
package mac

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"bulktx/internal/radio"
	"bulktx/internal/sim"
	"bulktx/internal/units"
)

// DropReason explains why the MAC abandoned a frame.
type DropReason int

// Drop reasons.
const (
	// DropRetryLimit means the retry limit was exhausted without an ack.
	DropRetryLimit DropReason = iota + 1
	// DropQueueFull means the transmit queue had no space.
	DropQueueFull
	// DropRadioOff means the radio was powered off with frames queued or
	// in flight.
	DropRadioOff

	// dropReasons sizes Stats.Drops.
	dropReasons
)

// String returns the reason name.
func (r DropReason) String() string {
	switch r {
	case DropRetryLimit:
		return "retry-limit"
	case DropQueueFull:
		return "queue-full"
	case DropRadioOff:
		return "radio-off"
	default:
		return fmt.Sprintf("DropReason(%d)", int(r))
	}
}

// ErrQueueFull is returned by Send when the transmit queue is at capacity.
var ErrQueueFull = errors.New("mac: transmit queue full")

// Params are the timing and persistence constants of a contention MAC.
type Params struct {
	// Name labels the MAC in logs.
	Name string
	// SlotTime is the contention slot duration.
	SlotTime time.Duration
	// SIFS is the short interframe space (data -> ack turnaround).
	SIFS time.Duration
	// DIFS is the interframe space sensed idle before transmitting.
	DIFS time.Duration
	// CWMin and CWMax bound the contention window (slots).
	CWMin, CWMax int
	// RetryLimit is the number of retransmissions before dropping.
	RetryLimit int
	// AckSize is the on-air size of link-layer acks.
	AckSize units.ByteSize
	// AckTimeout is how long to wait for an ack before retrying; zero
	// derives SIFS + ack airtime + one slot of slack at Attach time.
	AckTimeout time.Duration
	// QueueCap bounds the transmit queue (frames).
	QueueCap int
}

// SensorParams returns the sensor-radio MAC constants: CC2420-class
// unslotted CSMA/CA with link-layer acks and a shallow contention window.
func SensorParams() Params {
	return Params{
		Name:       "sensor-csma",
		SlotTime:   320 * time.Microsecond, // 802.15.4 aUnitBackoffPeriod
		SIFS:       192 * time.Microsecond, // 802.15.4 t_ack turnaround
		DIFS:       640 * time.Microsecond,
		CWMin:      7,
		CWMax:      127,
		RetryLimit: 5,
		AckSize:    11, // ack frame: header-sized
		QueueCap:   64,
	}
}

// WifiParams returns IEEE 802.11b DCF constants.
func WifiParams() Params {
	return Params{
		Name:       "802.11-dcf",
		SlotTime:   20 * time.Microsecond,
		SIFS:       10 * time.Microsecond,
		DIFS:       50 * time.Microsecond,
		CWMin:      31,
		CWMax:      1023,
		RetryLimit: 7,
		AckSize:    38, // 14 B ack + PLCP preamble equivalent
		QueueCap:   256,
	}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	switch {
	case p.SlotTime <= 0 || p.SIFS <= 0 || p.DIFS <= 0:
		return fmt.Errorf("mac %q: non-positive timing constants", p.Name)
	case p.CWMin < 1 || p.CWMax < p.CWMin:
		return fmt.Errorf("mac %q: invalid contention window [%d,%d]", p.Name, p.CWMin, p.CWMax)
	case p.RetryLimit < 0:
		return fmt.Errorf("mac %q: negative retry limit", p.Name)
	case p.AckSize <= 0:
		return fmt.Errorf("mac %q: non-positive ack size", p.Name)
	case p.QueueCap < 1:
		return fmt.Errorf("mac %q: queue capacity %d < 1", p.Name, p.QueueCap)
	}
	return nil
}

// Stats counts MAC-level outcomes.
type Stats struct {
	// Sent counts frames acknowledged (unicast) or transmitted
	// (broadcast).
	Sent uint64
	// Retries counts retransmission attempts.
	Retries uint64
	// Drops counts abandoned frames, indexed by DropReason.
	Drops [dropReasons]uint64
	// Received counts frames delivered to the upper layer.
	Received uint64
	// Duplicates counts suppressed duplicate receptions.
	Duplicates uint64
}

// MAC is a contention-based link layer over one transceiver.
type MAC struct {
	params Params
	sched  *sim.Scheduler
	xcvr   *radio.Transceiver

	// queue[head:] holds the frames waiting to transmit. Dequeuing
	// advances head instead of reslicing, so the backing array is reused
	// once drained rather than crawling forward and reallocating.
	queue       []radio.Frame
	head        int
	inflight    bool
	retries     int
	cw          int
	seq         uint64
	pendingAcks int

	ackTimer     sim.Timer
	pendingSense sim.Timer

	// ackQueue[ackHead:] holds committed link-layer acks awaiting their
	// SIFS gap, in fire order; fireAckFn is bound once so sendAck never
	// allocates. Entries fire strictly FIFO because every ack is
	// scheduled SIFS from its own (monotone) reception time.
	ackQueue  []radio.Frame
	ackHead   int
	fireAckFn func()

	// lastSeq holds the last sequence number delivered from each
	// unicast peer, in ascending peer order (see seenLast).
	lastSeq []peerSeq
	stats   Stats

	upper Upper
}

// Upper is the layer bound over a MAC (a BCP agent or a forwarder). It
// takes the frames the MAC delivers, the frames it sent (acked, or put
// on the air when broadcast) and the frames it accepted and later
// abandoned.
type Upper interface {
	Receive(f radio.Frame)
	Sent(f radio.Frame)
	Dropped(f radio.Frame, reason DropReason)
}

// macHooks is a MAC seen as the handler of its timers and the Upper of
// its transceiver: the conversion allocates nothing, where binding
// method values would allocate a closure per callback.
type macHooks MAC

// OnTimer runs the expiry of one of the MAC's timers.
func (h *macHooks) OnTimer(tm *sim.Timer) {
	m := (*MAC)(h)
	switch tm {
	case &m.ackTimer:
		m.onAckTimeout()
	case &m.pendingSense:
		m.senseAndTransmit()
	}
}

// Receive takes a clean reception from the transceiver.
func (h *macHooks) Receive(f radio.Frame) { (*MAC)(h).handleReceive(f) }

// TxDone takes the end of one of the transceiver's transmissions.
func (h *macHooks) TxDone(f radio.Frame) { (*MAC)(h).handleTxDone(f) }

// New binds a MAC to a transceiver, as the transceiver's Upper.
func New(params Params, sched *sim.Scheduler, xcvr *radio.Transceiver) (*MAC, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if params.AckTimeout == 0 {
		params.AckTimeout = params.SIFS +
			xcvr.Channel().Airtime(params.AckSize) +
			2*params.SlotTime
	}
	m := &MAC{
		params: params,
		sched:  sched,
		xcvr:   xcvr,
		cw:     params.CWMin,
	}
	m.ackTimer.Init(sched, (*macHooks)(m))
	m.pendingSense.Init(sched, (*macHooks)(m))
	m.fireAckFn = m.fireAck
	xcvr.SetUpper((*macHooks)(m))
	return m, nil
}

// Params returns the MAC constants (with the derived ack timeout).
func (m *MAC) Params() Params { return m.params }

// Transceiver returns the bound radio.
func (m *MAC) Transceiver() *radio.Transceiver { return m.xcvr }

// Stats returns a copy of the MAC counters.
func (m *MAC) Stats() Stats { return m.stats }

// QueueLen returns the number of frames the MAC holds: those waiting
// and the one in flight, which stays queued until it is acked or
// dropped.
func (m *MAC) QueueLen() int { return m.queueLen() }

func (m *MAC) queueLen() int { return len(m.queue) - m.head }

// dequeue removes and returns the head frame. Once the queue drains the
// backing array is reset and reused by later Sends; under saturation
// (never empty) the live region is periodically copied to the front so
// the dead prefix cannot grow without bound.
func (m *MAC) dequeue() radio.Frame {
	f := m.queue[m.head]
	m.queue[m.head] = radio.Frame{} // release the payload reference
	m.head++
	m.queue, m.head = compactQueue(m.queue, m.head)
	return f
}

// compactQueue reclaims a frame queue's consumed prefix: fully drained
// queues reset to the array start, and a dead prefix larger than the
// live remainder (past a small threshold) is compacted away.
func compactQueue(q []radio.Frame, head int) ([]radio.Frame, int) {
	if head == len(q) {
		return q[:0], 0
	}
	if head > 32 && head > len(q)-head {
		n := copy(q, q[head:])
		clear(q[n:])
		return q[:n], 0
	}
	return q, head
}

// SetUpper binds the layer that takes the MAC's deliveries, sends and
// drops (nil ignores them).
func (m *MAC) SetUpper(u Upper) { m.upper = u }

// Upper returns the bound upper layer, so a caller can wrap it.
func (m *MAC) Upper() Upper { return m.upper }

// Send enqueues a frame for transmission. The MAC assigns the sequence
// number. Unicast data and control frames are acknowledged and retried;
// broadcast frames are fire-and-forget.
//
// A full queue rejects the frame through the returned error alone (plus
// the DropQueueFull counter): the caller holding the frame is the one
// notified. The error is ErrQueueFull itself, not a wrapped copy, so a
// rejection allocates nothing. The Dropped upcall fires only for frames
// that were accepted and later abandoned, so a caller handling both the
// error and the upcall never sees the same frame twice.
func (m *MAC) Send(f radio.Frame) error {
	if m.queueLen() >= m.params.QueueCap {
		m.stats.Drops[DropQueueFull]++
		return ErrQueueFull
	}
	m.seq++
	f.Seq = m.seq
	m.queue = append(m.queue, f)
	m.kick()
	return nil
}

// Flush drops all queued frames (radio going off). In-flight frames are
// allowed to finish.
func (m *MAC) Flush() {
	for _, f := range m.queue[m.head:] {
		m.stats.Drops[DropRadioOff]++
		if m.upper != nil {
			m.upper.Dropped(f, DropRadioOff)
		}
	}
	clear(m.queue[m.head:]) // release the payload references
	m.queue = m.queue[:0]
	m.head = 0
	m.pendingSense.Stop()
	m.ackTimer.Stop()
	m.inflight = false
}

// Idle reports whether the MAC has nothing queued, in flight, or owed —
// including link-layer acks it has committed to send. Power management
// must not turn the radio off while an ack is pending, or the peer
// retries into the void.
func (m *MAC) Idle() bool {
	return !m.inflight && m.queueLen() == 0 && !m.pendingSense.Armed() &&
		m.pendingAcks == 0
}

// kick starts the channel-access procedure if work is pending.
func (m *MAC) kick() {
	if m.inflight || m.queueLen() == 0 || m.pendingSense.Armed() {
		return
	}
	m.inflight = true
	m.retries = 0
	m.cw = m.params.CWMin
	m.scheduleAttempt(false)
}

// scheduleAttempt arms the sense timer after DIFS plus, when backing off,
// a uniformly random number of contention slots.
func (m *MAC) scheduleAttempt(backoff bool) {
	wait := m.params.DIFS
	if backoff {
		slots := m.sched.Rand().Intn(m.cw + 1)
		wait += time.Duration(slots) * m.params.SlotTime
	}
	m.pendingSense.Reset(wait)
}

// senseAndTransmit performs the carrier-sense check and either transmits
// or backs off.
func (m *MAC) senseAndTransmit() {
	if m.queueLen() == 0 {
		m.inflight = false
		return
	}
	if !m.xcvr.On() {
		m.dropHead(DropRadioOff)
		return
	}
	if m.xcvr.Busy() {
		// Medium busy: resample a backoff (no CW growth — the window
		// widens only on failed transmissions, per DCF).
		m.scheduleAttempt(true)
		return
	}
	if idle, ok := m.xcvr.IdleFor(); ok && idle < m.params.DIFS {
		// The medium has not yet been idle a full DIFS: deferring here is
		// what protects SIFS-spaced acks from being trampled.
		m.pendingSense.Reset(m.params.DIFS - idle)
		return
	}
	f := m.queue[m.head]
	if err := m.xcvr.Transmit(f); err != nil {
		// The transceiver raced into a state we cannot use (e.g. an ack
		// transmission in progress); back off and retry.
		m.scheduleAttempt(true)
		return
	}
}

// handleTxDone fires when our transmission leaves the air.
func (m *MAC) handleTxDone(f radio.Frame) {
	if f.Kind == radio.KindAck {
		// Ack transmissions are not queued; resume any pending attempt.
		return
	}
	if m.queueLen() == 0 || m.queue[m.head].Seq != f.Seq {
		return
	}
	if !f.IsUnicast() {
		m.completeHead()
		return
	}
	m.ackTimer.Reset(m.params.AckTimeout)
}

// onAckTimeout retries the head frame or drops it past the retry limit.
func (m *MAC) onAckTimeout() {
	if m.queueLen() == 0 {
		m.inflight = false
		return
	}
	m.retries++
	m.stats.Retries++
	if m.retries > m.params.RetryLimit {
		m.dropHead(DropRetryLimit)
		return
	}
	m.growCW()
	m.scheduleAttempt(true)
}

func (m *MAC) growCW() {
	m.cw = min(2*m.cw+1, m.params.CWMax)
}

// completeHead reports success for the head frame and moves on.
func (m *MAC) completeHead() {
	f := m.dequeue()
	m.stats.Sent++
	m.inflight = false
	if m.upper != nil {
		m.upper.Sent(f)
	}
	m.kick()
}

// dropHead abandons the head frame and moves on.
func (m *MAC) dropHead(reason DropReason) {
	f := m.dequeue()
	m.stats.Drops[reason]++
	m.inflight = false
	if m.upper != nil {
		m.upper.Dropped(f, reason)
	}
	m.kick()
}

// handleReceive processes a clean reception from the transceiver.
func (m *MAC) handleReceive(f radio.Frame) {
	switch f.Kind {
	case radio.KindAck:
		m.handleAck(f)
	default:
		m.handleData(f)
	}
}

// handleAck matches an ack against the in-flight frame.
func (m *MAC) handleAck(f radio.Frame) {
	if !m.inflight || m.queueLen() == 0 {
		return
	}
	head := m.queue[m.head]
	if f.Src != head.Dst || f.Seq != head.Seq {
		return
	}
	if !m.ackTimer.Stop() {
		// Ack arrived outside the timeout window (frame still on air or
		// already retried); ignore.
		return
	}
	m.completeHead()
}

// handleData acknowledges unicast frames, suppresses duplicates and
// delivers new frames upward.
func (m *MAC) handleData(f radio.Frame) {
	if f.IsUnicast() {
		m.sendAck(f)
		if m.seenLast(f.Src, f.Seq) {
			m.stats.Duplicates++
			return
		}
	}
	m.stats.Received++
	if m.upper != nil {
		m.upper.Receive(f)
	}
}

// peerSeq is one unicast peer's last delivered sequence number.
type peerSeq struct {
	src radio.NodeID
	seq uint64
}

// seenLast reports whether seq is the last sequence number delivered
// from src (a retransmission whose ack was lost), and records it as the
// last one otherwise. A node hears unicast from a handful of peers, so
// the sorted slice costs one binary search and no per-MAC map.
func (m *MAC) seenLast(src radio.NodeID, seq uint64) bool {
	i, ok := slices.BinarySearchFunc(m.lastSeq, src, func(p peerSeq, src radio.NodeID) int { return cmp.Compare(p.src, src) })
	if !ok {
		m.lastSeq = slices.Insert(m.lastSeq, i, peerSeq{src: src, seq: seq})
		return false
	}
	if m.lastSeq[i].seq == seq {
		return true
	}
	m.lastSeq[i].seq = seq
	return false
}

// sendAck transmits a link-layer ack after SIFS, regardless of carrier
// (per 802.11: the SIFS gap guarantees priority over new transmissions).
func (m *MAC) sendAck(data radio.Frame) {
	ack := radio.Frame{
		Kind: radio.KindAck,
		Dst:  data.Src,
		Size: m.params.AckSize,
		Seq:  data.Seq,
	}
	m.pendingAcks++
	m.ackQueue = append(m.ackQueue, ack)
	m.sched.After(m.params.SIFS, m.fireAckFn)
}

// fireAck transmits the oldest committed ack once its SIFS gap elapses.
func (m *MAC) fireAck() {
	ack := m.ackQueue[m.ackHead]
	m.ackQueue[m.ackHead] = radio.Frame{}
	m.ackHead++
	m.ackQueue, m.ackHead = compactQueue(m.ackQueue, m.ackHead)
	m.pendingAcks--
	if !m.xcvr.On() {
		return
	}
	// If we are mid-transmission the ack is lost; the sender retries.
	_ = m.xcvr.Transmit(ack)
}

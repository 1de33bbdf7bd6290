package core

import (
	"cmp"
	"fmt"
	"slices"

	"bulktx/internal/mac"
	"bulktx/internal/radio"
	"bulktx/internal/routing"
	"bulktx/internal/sim"
	"bulktx/internal/units"
)

// NextHopper resolves a node's high-power next hop toward its data sink.
// *routing.Tree (a tree built over the high-power connectivity graph) and
// *routing.Learner (sensor-tree routes upgraded by shortcut learning)
// both satisfy it.
type NextHopper interface {
	NextHop(i int) (int, bool)
}

// burstObserver is implemented by NextHoppers that learn from completed
// bursts (route shortcut learning, Section 3).
type burstObserver interface {
	ObserveBurst(i int)
}

// Compile-time interface checks for the routing implementations.
var (
	_ NextHopper    = (*routing.Tree)(nil)
	_ NextHopper    = (*routing.Learner)(nil)
	_ burstObserver = (*routing.Learner)(nil)
)

// recvSession tracks the incoming bursts of one origin. It is made on
// the origin's first wake-up or frame and reused for every later
// handshake, with its idle timer bound once, so a handshake allocates
// nothing on the receiver side.
type recvSession struct {
	origin  int
	open    bool // a burst from origin is being received
	id      uint64
	granted units.ByteSize
	total   int
	got     []bool // got[i] marks burst frame i as received
	nGot    int    // frames marked in got
	// done is the ID of origin's most recently completed handshake, so
	// trailing duplicate frames do not resurrect the session (handshake
	// IDs start at 1, so the zero value matches none).
	done uint64
	idle sim.Timer
	a    *Agent
}

// OnTimer closes the session when its idle timer fires.
func (s *recvSession) OnTimer(*sim.Timer) { s.a.receiverTimeout(s.origin) }

// ctrlPool recycles one agent's outgoing control messages of one type.
// Receivers copy what they keep before their handler returns, so a
// message is referenced only by its frame in the sending agent's sensor
// MAC queue: once that queue is empty, every message handed out is
// dead and the pool starts over (see Agent.recycleControl).
type ctrlPool[T any] struct {
	msgs []*T
	used int
}

// next returns a message to fill; its fields hold stale values.
func (p *ctrlPool[T]) next() *T {
	if p.used == len(p.msgs) {
		p.msgs = append(p.msgs, new(T))
	}
	p.used++
	return p.msgs[p.used-1]
}

// Agent is one node's BCP instance, owning its two MAC layers.
type Agent struct {
	cfg   Config
	sched *sim.Scheduler

	sensor *mac.MAC
	wifi   *mac.MAC

	mesh      *routing.Mesh
	wifiRoute NextHopper

	// buffers holds one queue per high-power next hop, in ascending
	// next-hop order, so every walk over them (threshold check, deadline
	// check) is deterministic without sorting. Byte totals are
	// maintained incrementally, so the threshold check on every buffered
	// packet is O(hops) instead of a rescan of the queues. Queues are
	// never removed: a node has only a handful of next hops over a run.
	buffers       []hopQueue
	bufferedBytes units.ByteSize

	// Sender state: one handshake/burst in flight at a time.
	sending       bool
	curTarget     int
	curID         uint64
	curBurstReq   units.ByteSize
	wakeupTries   int
	pendingFrames int
	ackTimer      sim.Timer
	retryTimer    sim.Timer

	// burstBytes is the granted burst waiting for the radio to wake
	// (burstWaiting); burstFrames holds the frames of the burst in
	// flight, reused across bursts. The wifi MAC's frames point into
	// burstFrames, and each frame's packets into the target queue's
	// in-flight prefix (see hopQueue), so neither may change before
	// finishBurst.
	burstBytes   units.ByteSize
	burstWaiting bool
	burstFrames  []burstFrame

	// Receiver state: one session per burst origin, in ascending origin
	// order (see session).
	recv []*recvSession

	// Outgoing wake-ups and acks, recycled (see ctrlPool).
	wakeups ctrlPool[wakeupMsg]
	acks    ctrlPool[wakeupAck]

	// High-power radio power management: reference-counted users with a
	// linger timer for delayed shutdown.
	wifiUsers   int
	lingerTimer sim.Timer

	handshakeSeq  uint64
	flushing      bool
	deadlineTimer sim.Timer
	onDeliver     func(Packet)
	onPacket      func(PacketEvent, Packet)
	stats         Stats
}

// PacketEvent classifies a per-packet provenance notification from an
// agent (see SetOnPacket). Deliveries are not among them: the onDeliver
// callback already carries those.
type PacketEvent int

// Packet provenance events.
const (
	// PacketForwarded marks a packet re-buffered (store-and-forward) or
	// relayed over the low-power radio at an intermediate node.
	PacketForwarded PacketEvent = iota + 1
	// PacketDroppedNoRoute marks a packet refused because the node has
	// no high-power next hop toward the sink.
	PacketDroppedNoRoute
	// PacketDroppedBufferFull marks a packet refused at admission by a
	// full buffer.
	PacketDroppedBufferFull
	// PacketLost marks a packet abandoned in flight (a burst frame the
	// MAC gave up on, an unreachable burst target, a full low-power
	// queue on the delay-bound path).
	PacketLost
)

// String names the event (drop events name their reason).
func (e PacketEvent) String() string {
	switch e {
	case PacketForwarded:
		return "forwarded"
	case PacketDroppedNoRoute:
		return "no-route"
	case PacketDroppedBufferFull:
		return "buffer-full"
	case PacketLost:
		return "lost"
	default:
		return fmt.Sprintf("PacketEvent(%d)", int(e))
	}
}

// SetOnPacket registers a per-packet provenance observer (nil
// disables). The trace subsystem uses it to follow packets hop by hop;
// a disabled observer costs one nil check per event site.
func (a *Agent) SetOnPacket(fn func(PacketEvent, Packet)) { a.onPacket = fn }

// notePacket reports one provenance event to the observer, if any.
func (a *Agent) notePacket(ev PacketEvent, p Packet) {
	if a.onPacket != nil {
		a.onPacket(ev, p)
	}
}

// NewAgent wires a BCP agent over its two MACs and routing state. The
// onDeliver callback fires for every packet whose destination is this
// node. The agent takes ownership of both MACs' callbacks.
func NewAgent(
	cfg Config,
	sched *sim.Scheduler,
	sensorMAC, wifiMAC *mac.MAC,
	mesh *routing.Mesh,
	wifiRoute NextHopper,
	onDeliver func(Packet),
) (*Agent, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if sensorMAC == nil || wifiMAC == nil {
		return nil, fmt.Errorf("core: agent %d needs both MACs", cfg.NodeID)
	}
	if mesh == nil || wifiRoute == nil {
		return nil, fmt.Errorf("core: agent %d needs mesh and wifi route", cfg.NodeID)
	}
	a := &Agent{
		cfg:       cfg,
		sched:     sched,
		sensor:    sensorMAC,
		wifi:      wifiMAC,
		mesh:      mesh,
		wifiRoute: wifiRoute,
		onDeliver: onDeliver,
	}
	a.ackTimer.Init(sched, (*agentTimers)(a))
	a.retryTimer.Init(sched, (*agentTimers)(a))
	a.lingerTimer.Init(sched, (*agentTimers)(a))
	sensorMAC.SetUpper((*sensorUpper)(a))
	wifiMAC.SetUpper((*wifiUpper)(a))
	wifiMAC.Transceiver().SetWaker((*wifiUpper)(a))
	a.startDeadlineMonitor()
	return a, nil
}

// The agent takes its timers' expiries and its MACs' upcalls through
// these views of itself: converting an *Agent to one allocates
// nothing, where binding a method value would allocate a closure per
// callback.
type (
	agentTimers Agent // sim.Handler of the agent's timers
	sensorUpper Agent // mac.Upper of the sensor MAC
	wifiUpper   Agent // mac.Upper of the 802.11 MAC, radio.Waker of its radio
)

// OnTimer runs the expiry of one of the agent's timers.
func (h *agentTimers) OnTimer(t *sim.Timer) {
	a := (*Agent)(h)
	switch t {
	case &a.ackTimer:
		a.onAckTimeout()
	case &a.retryTimer:
		a.maybeStart()
	case &a.lingerTimer:
		a.tryPowerOff()
	case &a.deadlineTimer:
		a.checkDeadlines()
	}
}

// Receive takes the sensor MAC's deliveries: control traffic, and data
// on the delay-bound path.
func (h *sensorUpper) Receive(f radio.Frame) { (*Agent)(h).handleSensorFrame(f) }

// Sent ignores the sensor MAC's sent frames.
func (h *sensorUpper) Sent(radio.Frame) {}

// Dropped ignores the sensor MAC's drops: the handshake timers recover
// lost control frames.
func (h *sensorUpper) Dropped(radio.Frame, mac.DropReason) {}

// Receive takes the 802.11 MAC's deliveries (burst frames).
func (h *wifiUpper) Receive(f radio.Frame) { (*Agent)(h).handleWifiFrame(f) }

// Sent tracks burst completion.
func (h *wifiUpper) Sent(f radio.Frame) { (*Agent)(h).handleWifiSent(f) }

// Dropped accounts for burst frames the MAC abandoned.
func (h *wifiUpper) Dropped(f radio.Frame, r mac.DropReason) { (*Agent)(h).handleWifiDrop(f, r) }

// Woke starts the burst waiting for the 802.11 radio, if any.
func (h *wifiUpper) Woke() { (*Agent)(h).onWifiWake() }

// Stats returns a copy of the agent's counters.
func (a *Agent) Stats() Stats { return a.stats }

// BufferedBytes returns the total data waiting across all next hops.
func (a *Agent) BufferedBytes() units.ByteSize { return a.bufferedBytes }

// Config returns the agent configuration.
func (a *Agent) Config() Config { return a.cfg }

// Buffer accepts a locally generated or forwarded packet. Packets
// destined to this node are delivered immediately; others are buffered
// toward the high-power next hop, subject to the buffer capacity.
func (a *Agent) Buffer(p Packet) {
	if p.Dst == a.cfg.NodeID {
		a.deliver(p)
		return
	}
	nh, routed := a.wifiRoute.NextHop(a.cfg.NodeID)
	a.admit(p, nh, routed, nil)
}

// admit buffers p toward next hop nh (routed reports whether there is
// one), or drops it when there is no route or no room, and may start a
// handshake. q is nh's queue, or nil if not yet looked up; admit
// returns it, so a caller admitting several packets finds it once.
func (a *Agent) admit(p Packet, nh int, routed bool, q *hopQueue) *hopQueue {
	switch {
	case !routed:
		a.stats.PacketsDropped++
		a.notePacket(PacketDroppedNoRoute, p)
	case a.bufferedBytes+p.Size > a.cfg.BufferCap:
		a.stats.PacketsDropped++
		a.notePacket(PacketDroppedBufferFull, p)
	default:
		if q == nil {
			q = a.queue(nh)
		}
		q.pkts = append(q.pkts, p)
		q.bytes += p.Size
		a.bufferedBytes += p.Size
		a.stats.PacketsBuffered++
		a.maybeStart()
	}
	return q
}

// deliver hands a packet addressed to this node to the application.
func (a *Agent) deliver(p Packet) {
	a.stats.PacketsDelivered++
	if a.onDeliver != nil {
		a.onDeliver(p)
	}
}

// hopQueue is the buffered data toward one high-power next hop. While
// a burst to nh is in flight, its packets are the prefix pkts[:sent]
// and the burst frames point into it, so nothing writes below len(pkts)
// until finishBurst drops the prefix. Appending the backlog behind it
// is safe even when the array regrows: the frames keep the old array.
// bytes counts the backlog alone.
type hopQueue struct {
	nh    int
	pkts  []Packet
	sent  int
	bytes units.ByteSize
}

// backlog returns the packets waiting behind the burst in flight.
func (q *hopQueue) backlog() []Packet { return q.pkts[q.sent:] }

// find returns the index of next hop nh's queue, or where it would be
// inserted to keep the buffers in ascending next-hop order.
func (a *Agent) find(nh int) (int, bool) {
	for i := range a.buffers {
		if a.buffers[i].nh >= nh {
			return i, a.buffers[i].nh == nh
		}
	}
	return len(a.buffers), false
}

// queue returns next hop nh's queue, creating it in order if missing.
// A new queue has room for one burst (the threshold in packets, capped
// by the buffer capacity), so it does not re-grow on the way to its
// first handshake. The pointer is valid until the next queue is
// created.
func (a *Agent) queue(nh int) *hopQueue {
	i, ok := a.find(nh)
	if !ok {
		bytes := min(a.cfg.BurstThreshold, a.cfg.BufferCap)
		a.buffers = slices.Insert(a.buffers, i, hopQueue{
			nh:   nh,
			pkts: make([]Packet, 0, int(bytes/a.cfg.SensorPayload)),
		})
	}
	return &a.buffers[i]
}

// bufferedFor returns the bytes waiting for one next hop (maintained
// incrementally by Buffer and the drain paths).
func (a *Agent) bufferedFor(nh int) units.ByteSize {
	if i, ok := a.find(nh); ok {
		return a.buffers[i].bytes
	}
	return 0
}

// Flush requests transmission of all buffered data regardless of the
// burst threshold (graceful drain, e.g. at the end of a measurement run
// or before node shutdown). The agent keeps draining until its buffers
// empty, then reverts to threshold-triggered operation.
func (a *Agent) Flush() {
	a.flushing = true
	a.maybeStart()
}

// maybeStart begins a handshake when idle and some next hop has passed
// the burst threshold. The lowest qualifying next hop wins, for
// determinism: the buffers are in ascending next-hop order, so that is
// the first one.
func (a *Agent) maybeStart() {
	if a.sending {
		return
	}
	threshold := a.cfg.BurstThreshold
	if a.flushing {
		if a.bufferedBytes == 0 {
			a.flushing = false
		} else {
			threshold = 1
		}
	}
	i := 0
	for i < len(a.buffers) && a.buffers[i].bytes < threshold {
		i++
	}
	if i == len(a.buffers) {
		return
	}
	a.sending = true
	a.curTarget = a.buffers[i].nh
	a.handshakeSeq++
	a.curID = a.handshakeSeq
	a.curBurstReq = a.buffers[i].bytes
	a.wakeupTries = 0
	a.stats.Handshakes++
	a.sendWakeup()
}

// sendWakeup emits (or re-emits) the wake-up message toward the current
// target over the low-power radio.
func (a *Agent) sendWakeup() {
	hop, ok := a.mesh.NextHop(a.cfg.NodeID, a.curTarget)
	if !ok {
		a.failHandshake()
		return
	}
	a.sendControl(hop, a.pooledWakeup(wakeupMsg{
		ID:     a.curID,
		Origin: a.cfg.NodeID,
		Target: a.curTarget,
		Burst:  a.curBurstReq,
	}))
	a.ackTimer.Reset(a.cfg.AckTimeout)
}

// recycleControl restarts the control-message pools once the sensor
// MAC holds no frame, so no queued frame still points at a message.
func (a *Agent) recycleControl() {
	if a.sensor.QueueLen() == 0 {
		a.wakeups.used, a.acks.used = 0, 0
	}
}

// pooledWakeup returns a pooled copy of m with this node appended to
// its path.
func (a *Agent) pooledWakeup(m wakeupMsg) *wakeupMsg {
	a.recycleControl()
	w := a.wakeups.next()
	path := append(append(w.Path[:0], m.Path...), a.cfg.NodeID)
	*w = m
	w.Path = path
	return w
}

// pooledAck returns a pooled copy of ack with the last node, the one it
// is sent to, taken off its path.
func (a *Agent) pooledAck(ack wakeupAck) *wakeupAck {
	a.recycleControl()
	k := a.acks.next()
	path := append(k.Path[:0], ack.Path[:len(ack.Path)-1]...)
	*k = ack
	k.Path = path
	return k
}

// sendControl queues one control frame on the sensor MAC. The payload
// is a *wakeupMsg or *wakeupAck from the agent's pools.
func (a *Agent) sendControl(dst int, payload any) {
	frame := radio.Frame{
		Kind:    radio.KindControl,
		Dst:     radio.NodeID(dst),
		Size:    a.cfg.ControlPayload + a.cfg.SensorHeader,
		Payload: payload,
	}
	// A full control queue surfaces as a lost wake-up/ack; the handshake
	// timers recover.
	_ = a.sensor.Send(frame)
}

// onAckTimeout retries or abandons the pending handshake.
func (a *Agent) onAckTimeout() {
	if !a.sending {
		return
	}
	a.wakeupTries++
	if a.wakeupTries > a.cfg.MaxWakeupRetries {
		a.failHandshake()
		return
	}
	a.stats.WakeupResends++
	a.sendWakeup()
}

// failHandshake abandons the current attempt and schedules a later retry.
func (a *Agent) failHandshake() {
	a.stats.HandshakeFailures++
	a.ackTimer.Stop()
	a.sending = false
	if a.cfg.RetryBackoff > 0 {
		a.retryTimer.Reset(a.cfg.RetryBackoff)
	}
}

// handleSensorFrame demultiplexes low-power control traffic.
func (a *Agent) handleSensorFrame(f radio.Frame) {
	switch payload := f.Payload.(type) {
	case *wakeupMsg:
		a.handleWakeupMsg(*payload)
	case *wakeupAck:
		a.handleWakeupAck(*payload)
	case Packet:
		// Data over the low-power radio: only the delay-bound extension
		// produces these.
		a.handleSensorData(payload)
	default:
		// Anything else on the sensor channel is not ours.
	}
}

// handleWakeupMsg forwards or answers a wake-up message.
func (a *Agent) handleWakeupMsg(m wakeupMsg) {
	if m.Target != a.cfg.NodeID {
		hop, ok := a.mesh.NextHop(a.cfg.NodeID, m.Target)
		if !ok {
			return
		}
		a.sendControl(hop, a.pooledWakeup(m))
		return
	}
	a.receiverAdmit(m)
}

// receiverAdmit grants buffer space and acks the wake-up ("On reception
// of a wake-up message, the receiver wakes up its high-power radio and
// sends back a wake-up ack specifying the amount of data the sender can
// transmit").
func (a *Agent) receiverAdmit(m wakeupMsg) {
	if session := a.openSession(m.Origin); session != nil {
		if session.id == m.ID {
			// Duplicate wake-up (our ack may have been lost): re-grant
			// idempotently and keep the session alive.
			a.sendAckBack(m, session.granted)
			session.idle.Reset(a.cfg.ReceiverIdleTimeout)
			return
		}
		// A newer handshake supersedes a stale session (its burst ended
		// incompletely); close it so its radio reference is released.
		a.closeSession(m.Origin)
	}
	free := a.cfg.BufferCap - a.bufferedBytes
	if free <= 0 {
		a.stats.GrantsDenied++
		return // full buffer: no ack; the sender times out
	}
	grant := m.Burst
	if grant > free {
		grant = free
		a.stats.GrantsReduced++
	}
	session := a.startSession(m.Origin, m.ID)
	session.granted = grant
	a.acquireWifi()
	a.sendAckBack(m, grant)
	session.idle.Reset(a.cfg.ReceiverIdleTimeout)
}

// session returns origin's session record and whether it exists; i is
// where it is, or would be inserted, in the ascending recv list.
func (a *Agent) session(origin int) (s *recvSession, i int) {
	i, ok := slices.BinarySearchFunc(a.recv, origin, func(s *recvSession, o int) int { return cmp.Compare(s.origin, o) })
	if !ok {
		return nil, i
	}
	return a.recv[i], i
}

// openSession returns origin's open session, or nil.
func (a *Agent) openSession(origin int) *recvSession {
	if s, _ := a.session(origin); s != nil && s.open {
		return s
	}
	return nil
}

// startSession opens origin's session for handshake id, making the
// origin's record on first contact. The caller acquires the radio.
func (a *Agent) startSession(origin int, id uint64) *recvSession {
	s, i := a.session(origin)
	if s == nil {
		s = &recvSession{origin: origin, a: a}
		s.idle.Init(a.sched, s)
		a.recv = slices.Insert(a.recv, i, s)
	}
	s.open, s.id, s.granted, s.total, s.nGot = true, id, 0, 0, 0
	clear(s.got)
	return s
}

// sendAckBack routes a wake-up ack along the recorded reverse path.
func (a *Agent) sendAckBack(m wakeupMsg, grant units.ByteSize) {
	a.sendControl(m.Path[len(m.Path)-1], a.pooledAck(wakeupAck{
		ID:      m.ID,
		Origin:  m.Origin,
		Target:  m.Target,
		Granted: grant,
		Path:    m.Path,
	}))
}

// handleWakeupAck consumes or relays a returning ack.
func (a *Agent) handleWakeupAck(ack wakeupAck) {
	if ack.Origin != a.cfg.NodeID {
		if len(ack.Path) == 0 {
			return // malformed
		}
		a.sendControl(ack.Path[len(ack.Path)-1], a.pooledAck(ack))
		return
	}
	a.senderHandleAck(ack)
}

// senderHandleAck turns the high-power radio on and ships the granted
// burst.
func (a *Agent) senderHandleAck(ack wakeupAck) {
	if !a.sending || ack.ID != a.curID {
		return // stale handshake
	}
	if !a.ackTimer.Stop() {
		return // already timed out and moved on
	}
	if a.cfg.MinGrant > 0 && ack.Granted < a.cfg.MinGrant {
		// Paper extension: give up when the grant is below s*.
		a.stats.GrantsDeclined++
		a.sending = false
		if a.cfg.RetryBackoff > 0 {
			a.retryTimer.Reset(a.cfg.RetryBackoff)
		}
		return
	}
	a.burstBytes = ack.Granted
	if buffered := a.bufferedFor(a.curTarget); buffered < a.burstBytes {
		a.burstBytes = buffered
	}
	// Set before acquireWifi: a radio that wakes without latency starts
	// the burst from inside PowerOn.
	a.burstWaiting = true
	a.acquireWifi()
}

// startBurst assembles the granted buffered packets (burstBytes) into
// high-power frames and hands them to the DCF MAC.
func (a *Agent) startBurst() {
	if !a.sending {
		return
	}
	var q *hopQueue
	nPackets := 0
	if i, ok := a.find(a.curTarget); ok {
		q = &a.buffers[i]
		nPackets = min(int(a.burstBytes/a.cfg.SensorPayload), len(q.pkts))
	}
	if nPackets == 0 {
		a.finishBurst()
		return
	}
	// The burst ships in place: it becomes the queue's in-flight prefix,
	// and the frames below point into it.
	q.sent = nPackets
	burst := q.pkts[:nPackets]
	for _, p := range burst {
		a.bufferedBytes -= p.Size
		q.bytes -= p.Size
	}

	perFrame := int(a.cfg.WifiPayload / a.cfg.SensorPayload)
	if perFrame < 1 {
		perFrame = 1
	}
	total := (nPackets + perFrame - 1) / perFrame
	a.pendingFrames = total
	// Room for every frame up front, so the frames already handed to the
	// MAC never move.
	a.burstFrames = slices.Grow(a.burstFrames[:0], total)
	for i := 0; i < total; i++ {
		lo, hi := i*perFrame, min((i+1)*perFrame, nPackets)
		chunk := burst[lo:hi:hi]
		a.burstFrames = append(a.burstFrames, burstFrame{
			ID:      a.curID,
			Origin:  a.cfg.NodeID,
			Target:  a.curTarget,
			Index:   i + 1,
			Total:   total,
			Packets: chunk,
		})
		var size units.ByteSize
		for _, p := range chunk {
			size += p.Size
		}
		frame := radio.Frame{
			Kind:    radio.KindData,
			Dst:     radio.NodeID(a.curTarget),
			Size:    size + a.cfg.WifiHeader,
			Payload: &a.burstFrames[i],
		}
		if err := a.wifi.Send(frame); err != nil {
			// Queue overflow: the MAC already counted the drop; mirror the
			// packet loss here and shrink the expected completion count.
			a.stats.FramesLost++
			a.stats.PacketsLost += uint64(len(chunk))
			for _, p := range chunk {
				a.notePacket(PacketLost, p)
			}
			a.pendingFrames--
			continue
		}
		a.stats.FramesSent++
	}
	if a.pendingFrames == 0 {
		a.finishBurst()
	}
}

// handleWifiSent tracks burst completion.
func (a *Agent) handleWifiSent(f radio.Frame) {
	if _, ok := f.Payload.(*burstFrame); !ok {
		return
	}
	if !a.sending || a.pendingFrames == 0 {
		return
	}
	a.pendingFrames--
	if a.pendingFrames == 0 {
		a.finishBurst()
	}
}

// handleWifiDrop accounts for frames the DCF MAC abandoned.
func (a *Agent) handleWifiDrop(f radio.Frame, _ mac.DropReason) {
	b, ok := f.Payload.(*burstFrame)
	if !ok {
		return
	}
	a.stats.FramesLost++
	a.stats.PacketsLost += uint64(len(b.Packets))
	for _, p := range b.Packets {
		a.notePacket(PacketLost, p)
	}
	if !a.sending || a.pendingFrames == 0 {
		return
	}
	a.pendingFrames--
	if a.pendingFrames == 0 {
		a.finishBurst()
	}
}

// finishBurst closes the sender side of a transfer. Every frame of the
// burst is done, so the in-flight prefix goes and the backlog moves to
// the front of its queue.
func (a *Agent) finishBurst() {
	if i, ok := a.find(a.curTarget); ok {
		q := &a.buffers[i]
		q.pkts = q.pkts[:copy(q.pkts, q.backlog())]
		q.sent = 0
	}
	a.stats.BurstsSent++
	if obs, ok := a.wifiRoute.(burstObserver); ok {
		obs.ObserveBurst(a.cfg.NodeID)
	}
	a.adaptThreshold()
	a.sending = false
	a.releaseWifi()
	a.maybeStart()
}

// handleWifiFrame fragments an incoming burst frame back into packets.
func (a *Agent) handleWifiFrame(f radio.Frame) {
	b, ok := f.Payload.(*burstFrame)
	if !ok || b.Target != a.cfg.NodeID {
		return
	}
	if s, _ := a.session(b.Origin); s != nil && s.done == b.ID {
		return // trailing duplicate of a completed burst
	}
	session := a.openSession(b.Origin)
	if session != nil && session.id != b.ID {
		// Frames for a newer handshake: the stale session is dead weight;
		// release its radio reference before admitting the new burst.
		a.closeSession(b.Origin)
		session = nil
	}
	if session == nil {
		// The session timed out (or the ack grant raced the timeout) but
		// data still arrived: admit it under a fresh implicit session so
		// the radio stays on until the burst completes.
		session = a.startSession(b.Origin, b.ID)
		a.acquireWifi()
	}
	session.idle.Reset(a.cfg.ReceiverIdleTimeout)
	if session.total == 0 {
		session.total = b.Total
	}
	if b.Index < len(session.got) && session.got[b.Index] {
		return // duplicate frame
	}
	if b.Index >= len(session.got) {
		// got never shrinks, so the capacity past its length was never
		// written and reads false.
		session.got = slices.Grow(session.got, b.Index+1-len(session.got))[:b.Index+1]
	}
	session.got[b.Index] = true
	session.nGot++
	a.relay(b.Packets)
	if session.total > 0 && session.nGot >= session.total {
		a.stats.BurstsReceived++
		session.done = b.ID
		a.closeSession(b.Origin)
	}
}

// relay delivers or re-buffers the packets of one burst frame, in
// order (store-and-forward): Buffer over a whole frame, with the next
// hop looked up once, since only a finished burst can change it.
func (a *Agent) relay(pkts []Packet) {
	nh, routed := a.wifiRoute.NextHop(a.cfg.NodeID)
	var q *hopQueue
	for _, p := range pkts {
		if p.Dst == a.cfg.NodeID {
			a.deliver(p)
			continue
		}
		a.stats.PacketsForwarded++
		a.notePacket(PacketForwarded, p)
		q = a.admit(p, nh, routed, q)
	}
}

// receiverTimeout fires when an expected burst stalls.
func (a *Agent) receiverTimeout(origin int) {
	a.stats.ReceiverTimeouts++
	a.closeSession(origin)
}

// closeSession tears down a receive session and releases the radio.
func (a *Agent) closeSession(origin int) {
	session := a.openSession(origin)
	if session == nil {
		return
	}
	session.idle.Stop()
	session.open = false
	a.releaseWifi()
}

// acquireWifi registers a radio user and powers the radio on if needed.
// A waiting burst starts once the radio is usable: at once if it is on,
// else from onWifiWake.
func (a *Agent) acquireWifi() {
	a.wifiUsers++
	a.lingerTimer.Stop()
	x := a.wifi.Transceiver()
	if x.On() {
		a.onWifiWake()
		return
	}
	x.PowerOn()
}

// onWifiWake starts the burst waiting for the radio, if any. One
// handshake runs at a time, so at most one burst waits.
func (a *Agent) onWifiWake() {
	if a.burstWaiting {
		a.burstWaiting = false
		a.startBurst()
	}
}

// releaseWifi drops a radio user and schedules shutdown when idle.
func (a *Agent) releaseWifi() {
	if a.wifiUsers > 0 {
		a.wifiUsers--
	}
	if a.wifiUsers > 0 {
		return
	}
	if a.cfg.PostBurstLinger > 0 {
		a.lingerTimer.Reset(a.cfg.PostBurstLinger)
		return
	}
	a.tryPowerOff()
}

// tryPowerOff turns the radio off once it has drained; a busy radio is
// retried shortly.
func (a *Agent) tryPowerOff() {
	if a.wifiUsers > 0 {
		return
	}
	x := a.wifi.Transceiver()
	if !x.On() && !x.Waking() {
		return
	}
	if !a.wifi.Idle() || x.Busy() {
		a.lingerTimer.Reset(a.cfg.ReceiverIdleTimeout / 10)
		return
	}
	a.wifi.Flush()
	if err := x.PowerOff(); err != nil {
		a.lingerTimer.Reset(a.cfg.ReceiverIdleTimeout / 10)
	}
}

package core

import (
	"fmt"

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

// recvSession tracks one in-progress incoming burst.
type recvSession struct {
	id      uint64
	granted units.ByteSize
	total   int
	got     map[int]bool
	idle    sim.Timer
}

// Agent is one node's BCP instance, owning its two MAC layers.
type Agent struct {
	cfg   Config
	sched *sim.Scheduler

	sensor *mac.MAC
	wifi   *mac.MAC

	mesh      *routing.Mesh
	wifiRoute NextHopper
	addr      *routing.AddrMap

	// buffers holds one queue per high-power next hop. Byte totals are
	// maintained incrementally, so the threshold check on every buffered
	// packet is O(hops) instead of a rescan of the queues.
	buffers       map[int]*hopQueue
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

	// Receiver state, keyed by burst origin. lastDone remembers the most
	// recently completed handshake per origin so trailing duplicate
	// frames do not resurrect a session.
	recv     map[int]*recvSession
	lastDone map[int]uint64

	// High-power radio power management: reference-counted users with a
	// linger timer for delayed shutdown.
	wifiUsers   int
	wifiWaiters []func()
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
	addr *routing.AddrMap,
	onDeliver func(Packet),
) (*Agent, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if sensorMAC == nil || wifiMAC == nil {
		return nil, fmt.Errorf("core: agent %d needs both MACs", cfg.NodeID)
	}
	if mesh == nil || wifiRoute == nil || addr == nil {
		return nil, fmt.Errorf("core: agent %d needs mesh, wifi route and address map", cfg.NodeID)
	}
	a := &Agent{
		cfg:       cfg,
		sched:     sched,
		sensor:    sensorMAC,
		wifi:      wifiMAC,
		mesh:      mesh,
		wifiRoute: wifiRoute,
		addr:      addr,
		onDeliver: onDeliver,
		buffers:   make(map[int]*hopQueue),
		recv:      make(map[int]*recvSession),
		lastDone:  make(map[int]uint64),
	}
	a.ackTimer.Init(sched, a.onAckTimeout)
	a.retryTimer.Init(sched, a.maybeStart)
	a.lingerTimer.Init(sched, a.tryPowerOff)
	sensorMAC.SetOnReceive(a.handleSensorFrame)
	wifiMAC.SetOnReceive(a.handleWifiFrame)
	wifiMAC.SetOnSent(a.handleWifiSent)
	wifiMAC.SetOnDrop(a.handleWifiDrop)
	wifiMAC.Transceiver().SetOnWake(a.onWifiWake)
	a.startDeadlineMonitor()
	return a, nil
}

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
		a.stats.PacketsDelivered++
		if a.onDeliver != nil {
			a.onDeliver(p)
		}
		return
	}
	nh, ok := a.wifiRoute.NextHop(a.cfg.NodeID)
	if !ok {
		a.stats.PacketsDropped++
		a.notePacket(PacketDroppedNoRoute, p)
		return
	}
	if a.bufferedBytes+p.Size > a.cfg.BufferCap {
		a.stats.PacketsDropped++
		a.notePacket(PacketDroppedBufferFull, p)
		return
	}
	q := a.buffers[nh]
	if q == nil {
		q = &hopQueue{}
		a.buffers[nh] = q
	}
	q.pkts = append(q.pkts, p)
	q.bytes += p.Size
	a.bufferedBytes += p.Size
	a.stats.PacketsBuffered++
	a.maybeStart()
}

// hopQueue is the buffered backlog toward one high-power next hop.
type hopQueue struct {
	pkts  []Packet
	bytes units.ByteSize
}

// bufferedFor returns the bytes waiting for one next hop (maintained
// incrementally by Buffer and the drain paths).
func (a *Agent) bufferedFor(nh int) units.ByteSize {
	if q := a.buffers[nh]; q != nil {
		return q.bytes
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
// the burst threshold. Next hops are scanned in ascending order for
// determinism.
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
	// Lowest qualifying next hop wins, for determinism (equivalent to
	// collecting and sorting, without the allocation).
	target := -1
	for nh, q := range a.buffers {
		if q.bytes >= threshold && (target < 0 || nh < target) {
			target = nh
		}
	}
	if target < 0 {
		return
	}
	a.sending = true
	a.curTarget = target
	a.handshakeSeq++
	a.curID = a.handshakeSeq
	a.curBurstReq = a.bufferedFor(a.curTarget)
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
	msg := wakeupMsg{
		ID:     a.curID,
		Origin: a.cfg.NodeID,
		Target: a.curTarget,
		Burst:  a.curBurstReq,
		Path:   []int{a.cfg.NodeID},
	}
	a.sendControl(hop, msg)
	a.ackTimer.Reset(a.cfg.AckTimeout)
}

// sendControl queues one control frame on the sensor MAC.
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
	case wakeupMsg:
		a.handleWakeupMsg(payload)
	case wakeupAck:
		a.handleWakeupAck(payload)
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
		fwd := m
		fwd.Path = append(append([]int(nil), m.Path...), a.cfg.NodeID)
		a.sendControl(hop, fwd)
		return
	}
	a.receiverAdmit(m)
}

// receiverAdmit grants buffer space and acks the wake-up ("On reception
// of a wake-up message, the receiver wakes up its high-power radio and
// sends back a wake-up ack specifying the amount of data the sender can
// transmit").
func (a *Agent) receiverAdmit(m wakeupMsg) {
	if session, dup := a.recv[m.Origin]; dup {
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
	session := &recvSession{
		id:      m.ID,
		granted: grant,
		got:     make(map[int]bool),
	}
	session.idle.Init(a.sched, func() { a.receiverTimeout(m.Origin) })
	a.recv[m.Origin] = session
	a.acquireWifi(nil)
	a.sendAckBack(m, grant)
	session.idle.Reset(a.cfg.ReceiverIdleTimeout)
}

// sendAckBack routes a wake-up ack along the recorded reverse path.
func (a *Agent) sendAckBack(m wakeupMsg, grant units.ByteSize) {
	path := append([]int(nil), m.Path...)
	next := path[len(path)-1]
	ack := wakeupAck{
		ID:      m.ID,
		Origin:  m.Origin,
		Target:  m.Target,
		Granted: grant,
		Path:    path[:len(path)-1],
	}
	a.sendControl(next, ack)
}

// handleWakeupAck consumes or relays a returning ack.
func (a *Agent) handleWakeupAck(ack wakeupAck) {
	if ack.Origin != a.cfg.NodeID {
		if len(ack.Path) == 0 {
			return // malformed
		}
		next := ack.Path[len(ack.Path)-1]
		fwd := ack
		fwd.Path = append([]int(nil), ack.Path[:len(ack.Path)-1]...)
		a.sendControl(next, fwd)
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
	sendBytes := ack.Granted
	if buffered := a.bufferedFor(a.curTarget); buffered < sendBytes {
		sendBytes = buffered
	}
	a.acquireWifi(func() { a.startBurst(sendBytes) })
}

// startBurst assembles buffered packets into high-power frames and hands
// them to the DCF MAC.
func (a *Agent) startBurst(sendBytes units.ByteSize) {
	if !a.sending {
		return
	}
	q := a.buffers[a.curTarget]
	var queue []Packet
	if q != nil {
		queue = q.pkts
	}
	nPackets := int(sendBytes / a.cfg.SensorPayload)
	if nPackets > len(queue) {
		nPackets = len(queue)
	}
	if nPackets == 0 {
		a.finishBurst()
		return
	}
	burst := queue[:nPackets]
	q.pkts = queue[nPackets:]
	for _, p := range burst {
		a.bufferedBytes -= p.Size
		q.bytes -= p.Size
	}

	perFrame := int(a.cfg.WifiPayload / a.cfg.SensorPayload)
	if perFrame < 1 {
		perFrame = 1
	}
	total := (nPackets + perFrame - 1) / perFrame
	highDst, ok := a.addr.High(a.curTarget)
	if !ok {
		// No high-power identity for the target: the data cannot be
		// shipped. Count the packets as lost and close out.
		a.stats.PacketsLost += uint64(nPackets)
		for _, p := range burst {
			a.notePacket(PacketLost, p)
		}
		a.finishBurst()
		return
	}
	a.pendingFrames = total
	for i := 0; i < total; i++ {
		lo, hi := i*perFrame, (i+1)*perFrame
		if hi > nPackets {
			hi = nPackets
		}
		chunk := append([]Packet(nil), burst[lo:hi]...)
		var size units.ByteSize
		for _, p := range chunk {
			size += p.Size
		}
		frame := radio.Frame{
			Kind: radio.KindData,
			Dst:  radio.NodeID(highDst),
			Size: size + a.cfg.WifiHeader,
			Payload: burstFrame{
				ID:      a.curID,
				Origin:  a.cfg.NodeID,
				Target:  a.curTarget,
				Index:   i + 1,
				Total:   total,
				Packets: chunk,
			},
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
	if _, ok := f.Payload.(burstFrame); !ok {
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
	b, ok := f.Payload.(burstFrame)
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

// finishBurst closes the sender side of a transfer.
func (a *Agent) finishBurst() {
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
	b, ok := f.Payload.(burstFrame)
	if !ok || b.Target != a.cfg.NodeID {
		return
	}
	if a.lastDone[b.Origin] == b.ID {
		return // trailing duplicate of a completed burst
	}
	session := a.recv[b.Origin]
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
		session = &recvSession{id: b.ID, got: make(map[int]bool)}
		session.idle.Init(a.sched, func() { a.receiverTimeout(b.Origin) })
		a.recv[b.Origin] = session
		a.acquireWifi(nil)
	}
	session.idle.Reset(a.cfg.ReceiverIdleTimeout)
	if session.total == 0 {
		session.total = b.Total
	}
	if session.got[b.Index] {
		return // duplicate frame
	}
	session.got[b.Index] = true
	for _, p := range b.Packets {
		a.acceptPacket(p)
	}
	if session.total > 0 && len(session.got) >= session.total {
		a.stats.BurstsReceived++
		a.lastDone[b.Origin] = b.ID
		a.closeSession(b.Origin)
	}
}

// acceptPacket delivers or re-buffers one fragmented packet.
func (a *Agent) acceptPacket(p Packet) {
	if p.Dst == a.cfg.NodeID {
		a.stats.PacketsDelivered++
		if a.onDeliver != nil {
			a.onDeliver(p)
		}
		return
	}
	a.stats.PacketsForwarded++
	a.notePacket(PacketForwarded, p)
	a.Buffer(p)
}

// receiverTimeout fires when an expected burst stalls.
func (a *Agent) receiverTimeout(origin int) {
	a.stats.ReceiverTimeouts++
	a.closeSession(origin)
}

// closeSession tears down a receive session and releases the radio.
func (a *Agent) closeSession(origin int) {
	session := a.recv[origin]
	if session == nil {
		return
	}
	session.idle.Stop()
	delete(a.recv, origin)
	a.releaseWifi()
}

// acquireWifi registers a radio user; ready runs once the radio is
// usable (immediately if already on).
func (a *Agent) acquireWifi(ready func()) {
	a.wifiUsers++
	a.lingerTimer.Stop()
	x := a.wifi.Transceiver()
	if x.On() {
		if ready != nil {
			ready()
		}
		return
	}
	if ready != nil {
		a.wifiWaiters = append(a.wifiWaiters, ready)
	}
	x.PowerOn()
}

// onWifiWake runs the queued radio-ready thunks.
func (a *Agent) onWifiWake() {
	waiters := a.wifiWaiters
	a.wifiWaiters = nil
	for _, fn := range waiters {
		fn()
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

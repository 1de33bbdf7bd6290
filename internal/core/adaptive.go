package core

import (
	"time"

	"bulktx/internal/analysis"
	"bulktx/internal/radio"
	"bulktx/internal/units"
)

// Adaptive threshold control: the paper leaves "adapting s* based on
// retransmissions as future work" (Section 3). This file implements that
// extension: after every burst the agent re-estimates the expected
// transmissions per packet on both links from its MACs' counters,
// re-solves the break-even equation with those factors and updates the
// burst threshold to alpha times the new s*.

// adaptThreshold recomputes the burst threshold from observed link
// quality. Called after each completed burst when the extension is
// enabled.
func (a *Agent) adaptThreshold() {
	if a.cfg.ThresholdAlpha <= 0 {
		return
	}
	low := a.sensor.Transceiver().Channel().Config().Profile
	high := a.wifi.Transceiver().Channel().Config().Profile

	link := analysis.DefaultLink()
	link.PayloadL, link.HeaderL = a.cfg.SensorPayload, a.cfg.SensorHeader
	link.PayloadH, link.HeaderH = a.cfg.WifiPayload, a.cfg.WifiHeader
	link.Control = a.cfg.ControlPayload
	link.RetxL = observedRetx(a.sensor.Stats().Sent, a.sensor.Stats().Retries)
	link.RetxH = observedRetx(a.wifi.Stats().Sent, a.wifi.Stats().Retries)

	model, err := analysis.NewModel(low, high, analysis.WithLink(link))
	if err != nil {
		return // profiles unusable for analysis: keep the static threshold
	}
	sStar, err := model.BreakEven()
	if err != nil {
		// The high-power radio is currently never profitable (e.g. the
		// 802.11 link is so lossy that its per-bit cost exceeds the
		// sensor radio's). Back off to the most conservative threshold:
		// the full buffer.
		a.cfg.BurstThreshold = a.cfg.BufferCap
		a.stats.ThresholdAdaptations++
		return
	}
	threshold := units.ByteSize(a.cfg.ThresholdAlpha * float64(sStar))
	threshold -= threshold % a.cfg.SensorPayload // whole packets
	if threshold < a.cfg.SensorPayload {
		threshold = a.cfg.SensorPayload
	}
	if threshold > a.cfg.BufferCap {
		threshold = a.cfg.BufferCap
	}
	if threshold != a.cfg.BurstThreshold {
		a.cfg.BurstThreshold = threshold
		a.stats.ThresholdAdaptations++
	}
}

// observedRetx converts MAC counters into an expected-transmissions
// factor: (sent + retries) / sent, clamped to [1, 8].
func observedRetx(sent, retries uint64) float64 {
	if sent == 0 {
		return 1
	}
	f := 1 + float64(retries)/float64(sent)
	if f < 1 {
		return 1
	}
	if f > 8 {
		return 8
	}
	return f
}

// Delay-bounded low-power data path: the paper closes with "Based on
// delay constraints, the low-power radio can also be allowed to send
// data. However, now, we are faced with the question: is it best to send
// immediately with the low-power radio or to buffer as much as allowed
// by the delay constraints and send with the high-power radio?" — left
// as future work. This extension implements the mechanism: packets that
// would overrun the delay bound while waiting for the threshold are
// pulled out of the buffer and sent hop-by-hop over the always-on sensor
// radio.

// startDeadlineMonitor arms the periodic age check (a quarter of the
// bound keeps worst-case overshoot at 25%).
func (a *Agent) startDeadlineMonitor() {
	if a.cfg.DelayBound <= 0 {
		return
	}
	a.deadlineTimer.Init(a.sched, (*agentTimers)(a))
	a.deadlineTimer.Reset(a.deadlinePeriod())
}

func (a *Agent) deadlinePeriod() time.Duration {
	period := a.cfg.DelayBound / 4
	if period <= 0 {
		period = time.Millisecond
	}
	return period
}

// checkDeadlines walks the buffers and reroutes overdue packets over the
// low-power radio. Reroutes are paced by the sensor MAC's queue headroom
// so a large overdue backlog drains across checks instead of overflowing
// the link-layer queue in one batch (the remainder stays buffered and
// goes out on the next period).
func (a *Agent) checkDeadlines() {
	now := a.sched.Now()
	budget := a.cfg.DelayBound - a.deadlinePeriod()
	// Keep a few queue slots free for wake-up control traffic.
	const controlSlack = 8
	headroom := a.sensor.Params().QueueCap - a.sensor.QueueLen() - controlSlack
	backlog := false
	// The buffers are in ascending next-hop order, so both the reroute
	// order into the shared sensor MAC and the choice of which overdue
	// packets wait when headroom runs out are deterministic.
	for i := range a.buffers {
		q := &a.buffers[i]
		// The burst in flight is no longer buffered: only its backlog
		// is checked, and kept packets go behind it.
		kept := q.pkts[:q.sent]
		for _, p := range q.backlog() {
			if now-p.Created >= budget {
				if headroom <= 0 {
					backlog = true
					kept = append(kept, p)
					continue
				}
				a.bufferedBytes -= p.Size
				q.bytes -= p.Size
				a.stats.SensorSends++
				a.sendDataViaSensor(p)
				headroom--
				continue
			}
			kept = append(kept, p)
		}
		q.pkts = kept
	}
	// Overdue packets stuck behind a full link-layer queue: recheck as
	// soon as the queue can have drained rather than a full period later.
	period := a.deadlinePeriod()
	if backlog {
		if fast := 100 * time.Millisecond; fast < period {
			period = fast
		}
	}
	a.deadlineTimer.Reset(period)
}

// sendDataViaSensor forwards one packet over the sensor radio toward its
// destination (next mesh hop; intermediate agents relay).
func (a *Agent) sendDataViaSensor(p Packet) {
	hop, ok := a.mesh.NextHop(a.cfg.NodeID, p.Dst)
	if !ok {
		a.stats.PacketsDropped++
		a.notePacket(PacketDroppedNoRoute, p)
		return
	}
	frame := radio.Frame{
		Kind:    radio.KindData,
		Dst:     radio.NodeID(hop),
		Size:    p.Size + a.cfg.SensorHeader,
		Payload: p,
	}
	// A full sensor queue loses the packet; the delay bound was the
	// caller's priority, so no re-buffering.
	if err := a.sensor.Send(frame); err != nil {
		a.stats.PacketsLost++
		a.notePacket(PacketLost, p)
	}
}

// handleSensorData relays or delivers a low-power data packet.
func (a *Agent) handleSensorData(p Packet) {
	if p.Dst == a.cfg.NodeID {
		a.deliver(p)
		return
	}
	a.stats.SensorForwards++
	a.notePacket(PacketForwarded, p)
	a.sendDataViaSensor(p)
}

package core

import (
	"testing"
	"time"

	"bulktx/internal/mac"
	"bulktx/internal/params"
)

// TestHandshakeBurstCycleZeroAllocs checks that, once warm, a whole BCP
// cycle on a two-node dual-radio stack allocates nothing: buffering to
// the threshold, the wake-up handshake over the sensor radio, the
// 802.11 wake-up, the burst, its delivery and the radio shutdown.
// Receive sessions, control messages, burst frames and the
// scheduler's slots and lanes are all reused.
func TestHandshakeBurstCycleZeroAllocs(t *testing.T) {
	const burst = 10
	h := newHarness(t, harnessOpts{nodes: 2, burstPackets: burst})
	var seq uint64
	cycle := func() {
		h.delivered[1] = h.delivered[1][:0]
		for range burst {
			seq++
			h.agents[0].Buffer(Packet{Src: 0, Dst: 1, Seq: seq, Size: params.SensorPayload, Created: h.sched.Now()})
		}
		h.sched.Run()
		if got := len(h.delivered[1]); got != burst {
			t.Fatalf("cycle delivered %d packets, want %d", got, burst)
		}
	}
	cycle() // warm the pools, queues, sessions and lanes
	cycle()
	before := h.agents[0].Stats().BurstsSent
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Errorf("handshake + burst cycle allocates %.1f times, want 0", allocs)
	}
	if got := h.agents[0].Stats().BurstsSent - before; got != 21 {
		t.Errorf("%d bursts in 21 cycles, want one each", got)
	}
}

// TestBurstPacketsArriveIntact runs a relay chain 0 -> 1 -> 2 in which
// both 0 and 1 generate data, under 802.11 loss that exhausts MAC
// retries, transmit-queue flushes at node 0 and crashes of both
// senders' 802.11 radios mid-run. Burst frames point into their
// sender's reused burst storage, so a burst overwritten before its
// frames were done would reach the sink as wrong or repeated packets:
// every packet delivered must equal one generated, once.
func TestBurstPacketsArriveIntact(t *testing.T) {
	h := newHarness(t, harnessOpts{nodes: 3, burstPackets: 100, wifiLoss: 0.3})
	sent := make(map[[2]int]Packet)
	var seq [2]int
	var generate func()
	generate = func() {
		for src := 0; src < 2; src++ {
			seq[src]++
			p := Packet{Src: src, Dst: 2, Seq: uint64(seq[src]), Size: params.SensorPayload, Created: h.sched.Now()}
			sent[[2]int{src, seq[src]}] = p
			h.agents[src].Buffer(p)
		}
		if h.sched.Now() < 100*time.Second {
			h.sched.After(50*time.Millisecond, generate)
		}
	}
	h.sched.After(0, generate)

	// Now and then, flush node 0's 802.11 queue when it holds frames and
	// the radio is not on the air (tryPowerOff's condition).
	flushed := 0
	var flush func()
	flush = func() {
		m, x := h.agents[0].wifi, h.agents[0].wifi.Transceiver()
		if m.QueueLen() > 0 && !x.Busy() {
			before := m.Stats().Drops[mac.DropRadioOff]
			m.Flush()
			flushed += int(m.Stats().Drops[mac.DropRadioOff] - before)
		}
		if h.sched.Now() < 100*time.Second {
			h.sched.After(97*time.Millisecond, flush)
		}
	}
	h.sched.After(0, flush)

	crash := func(node int, at, down time.Duration) {
		x := h.agents[node].wifi.Transceiver()
		h.sched.After(at, func() { x.SetFailed(true) })
		h.sched.After(at+down, func() { x.SetFailed(false) })
	}
	crash(1, 20*time.Second, 5*time.Second)
	crash(0, 40*time.Second, time.Second)
	crash(0, 61*time.Second, 300*time.Millisecond)

	h.sched.RunUntil(100 * time.Second)
	for _, a := range h.agents[:2] {
		a.Flush()
	}
	h.sched.RunUntil(200 * time.Second)

	seen := make(map[[2]int]bool)
	for _, p := range h.delivered[2] {
		key := [2]int{p.Src, int(p.Seq)}
		if want, ok := sent[key]; !ok || p != want {
			t.Fatalf("sink got %+v, generated %+v (found %v)", p, want, ok)
		}
		if seen[key] {
			t.Fatalf("sink got %v twice", p)
		}
		seen[key] = true
	}
	st0 := h.agents[0].Stats()
	t.Logf("delivered %d of %d packets; node 0: %d frames flushed, %d frames lost, %d retry-limit drops",
		len(seen), len(sent), flushed, st0.FramesLost, h.agents[0].wifi.Stats().Drops[mac.DropRetryLimit])
	if len(seen) < len(sent)/2 || flushed == 0 || st0.FramesLost == 0 ||
		h.agents[0].wifi.Stats().Drops[mac.DropRetryLimit] == 0 {
		t.Errorf("delivered %d of %d packets, %d frames flushed, %d frames lost, %d retry-limit drops: the run missed a path",
			len(seen), len(sent), flushed, st0.FramesLost, h.agents[0].wifi.Stats().Drops[mac.DropRetryLimit])
	}
}

package core

import (
	"testing"
	"time"

	"bulktx/internal/params"
	"bulktx/internal/units"
)

// FuzzBurstRelay generalises TestBurstPacketsArriveIntact: a relay
// chain of 2–5 nodes toward the last one, every other node generating
// packets of fuzzed sizes, with a fuzzed burst size, buffer capacity
// and 802.11 loss, periodic flushes of node 0's 802.11 queue and a
// crash of one node's 802.11 radio. Bursts ship in place from the hop
// queues and relays re-buffer whole frames, so a queue written below
// its in-flight prefix would send wrong or repeated packets.
//
// The oracle: every packet delivered equals exactly one generated
// packet and arrives at most once; every packet an agent drops, loses
// or holds at the end is one generated; and every generated packet is
// delivered at the sink, dropped at admission, lost in flight or still
// buffered, so generated = delivered + dropped + lost + buffered when
// each packet counts under the first of its fates in that order. (A
// packet can meet more than one along the chain: a sender counts a
// frame lost when its acks were lost although the next hop got it.)
func FuzzBurstRelay(f *testing.F) {
	f.Add(uint8(3), uint8(100), uint64(0), uint8(0), uint8(30), uint8(97), uint8(1), uint8(20), uint8(50))
	f.Add(uint8(2), uint8(10), uint64(1), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(5), uint8(40), uint64(7), uint8(1), uint8(10), uint8(60), uint8(2), uint8(5), uint8(30))
	f.Add(uint8(4), uint8(1), uint64(42), uint8(3), uint8(50), uint8(13), uint8(3), uint8(9), uint8(200))
	f.Add(uint8(3), uint8(255), uint64(99), uint8(0), uint8(5), uint8(0), uint8(0), uint8(12), uint8(10))
	f.Fuzz(func(t *testing.T, nodes, burst uint8, sizeSeed uint64, capBursts, lossPct, flushMS, crashNode, crashAt, crashFor uint8) {
		n := 2 + int(nodes)%4
		burstPackets := 1 + int(burst)%150
		h := newHarness(t, harnessOpts{
			nodes:        n,
			burstPackets: burstPackets,
			wifiLoss:     float64(lossPct%60) / 100,
			cfgMut: func(_ int, c *Config) {
				// From one burst (the least Validate allows) to four.
				c.BufferCap = c.BurstThreshold * units.ByteSize(1+capBursts%4)
			},
		})
		sink := n - 1
		const genEnd, end = 20 * time.Second, 200 * time.Second

		type key struct {
			src int
			seq uint64
		}
		generated := make(map[key]Packet)
		// dropped and lost record the agents' drop and loss events.
		dropped, lost := make(map[key]bool), make(map[key]bool)
		var bad []Packet // events for packets never generated
		for _, a := range h.agents {
			a.SetOnPacket(func(ev PacketEvent, p Packet) {
				k := key{p.Src, p.Seq}
				if want, ok := generated[k]; !ok || p != want {
					bad = append(bad, p)
				}
				switch ev {
				case PacketDroppedNoRoute, PacketDroppedBufferFull:
					dropped[k] = true
				case PacketLost:
					lost[k] = true
				}
			})
		}

		// Every node but the sink generates a packet every 50 ms, its
		// size drawn from sizeSeed: 1 B to twice the sensor payload.
		rng := sizeSeed | 1
		seq := make([]uint64, sink)
		var generate func()
		generate = func() {
			for src := range sink {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				seq[src]++
				p := Packet{
					Src: src, Dst: sink, Seq: seq[src],
					Size:    1 + units.ByteSize(rng%uint64(2*params.SensorPayload)),
					Created: h.sched.Now(),
				}
				generated[key{src, p.Seq}] = p
				h.agents[src].Buffer(p)
			}
			if h.sched.Now() < genEnd {
				h.sched.After(50*time.Millisecond, generate)
			}
		}
		h.sched.After(0, generate)

		// Every flushMS ms, flush node 0's 802.11 queue when it holds
		// frames and its radio is not on the air (tryPowerOff's
		// condition).
		if flushMS > 0 {
			period := time.Duration(flushMS) * time.Millisecond
			var flush func()
			flush = func() {
				if m := h.agents[0].wifi; m.QueueLen() > 0 && !m.Transceiver().Busy() {
					m.Flush()
				}
				if h.sched.Now() < genEnd {
					h.sched.After(period, flush)
				}
			}
			h.sched.After(period, flush)
		}

		// One node's 802.11 radio crashes for crashFor×100 ms.
		if crashFor > 0 {
			x := h.agents[int(crashNode)%n].wifi.Transceiver()
			at := time.Duration(crashAt%200) * 100 * time.Millisecond
			h.sched.After(at, func() { x.SetFailed(true) })
			h.sched.After(at+time.Duration(crashFor)*100*time.Millisecond, func() { x.SetFailed(false) })
		}

		h.sched.RunUntil(genEnd)
		for _, a := range h.agents {
			a.Flush()
		}
		h.sched.RunUntil(end)

		if len(bad) > 0 {
			t.Fatalf("agents reported %d packets never generated, first %+v", len(bad), bad[0])
		}
		delivered := make(map[key]bool)
		for _, p := range h.delivered[sink] {
			k := key{p.Src, p.Seq}
			if want, ok := generated[k]; !ok || p != want {
				t.Fatalf("sink got %+v, generated %+v (found %v)", p, want, ok)
			}
			if delivered[k] {
				t.Fatalf("sink got %+v twice", p)
			}
			delivered[k] = true
		}
		for node, got := range h.delivered {
			if node != sink && len(got) > 0 {
				t.Fatalf("node %d, not the sink, got %d packets", node, len(got))
			}
		}
		buffered := make(map[key]bool)
		for _, a := range h.agents {
			for _, q := range a.buffers {
				for _, p := range q.pkts {
					k := key{p.Src, p.Seq}
					if want, ok := generated[k]; !ok || p != want {
						t.Fatalf("node %d buffers %+v, generated %+v (found %v)", a.cfg.NodeID, p, want, ok)
					}
					buffered[k] = true
				}
			}
		}

		for k, p := range generated {
			if !delivered[k] && !dropped[k] && !lost[k] && !buffered[k] {
				t.Fatalf("packet %+v vanished: not delivered, dropped, lost or buffered", p)
			}
		}
	})
}

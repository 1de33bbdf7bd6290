package core

import (
	"testing"
	"time"
)

func TestFlushDrainsBelowThreshold(t *testing.T) {
	h := newHarness(t, harnessOpts{nodes: 2, burstPackets: 100})
	h.generate(0, 1, 7) // far below threshold
	h.sched.RunUntil(time.Second)
	if len(h.delivered[1]) != 0 {
		t.Fatal("delivered before flush")
	}
	h.agents[0].Flush()
	h.sched.RunUntil(30 * time.Second)
	if got := len(h.delivered[1]); got != 7 {
		t.Errorf("flush delivered %d/7", got)
	}
	if got := h.agents[0].BufferedBytes(); got != 0 {
		t.Errorf("buffer not drained: %v", got)
	}
}

func TestFlushEmptyBufferNoop(t *testing.T) {
	h := newHarness(t, harnessOpts{nodes: 2, burstPackets: 100})
	h.agents[0].Flush()
	h.sched.RunUntil(5 * time.Second)
	if st := h.agents[0].Stats(); st.Handshakes != 0 {
		t.Errorf("flush of empty buffer started %d handshakes", st.Handshakes)
	}
}

func TestFlushRevertsToThresholdMode(t *testing.T) {
	h := newHarness(t, harnessOpts{nodes: 2, burstPackets: 100})
	h.generate(0, 1, 5)
	h.agents[0].Flush()
	h.sched.RunUntil(30 * time.Second)
	if got := len(h.delivered[1]); got != 5 {
		t.Fatalf("flush delivered %d/5", got)
	}
	// New sub-threshold data must sit buffered again (flushing cleared).
	h.generate(0, 1, 5)
	h.sched.RunUntil(60 * time.Second)
	if got := len(h.delivered[1]); got != 5 {
		t.Errorf("post-flush data sent below threshold: delivered %d", got)
	}
	if got := h.agents[0].BufferedBytes(); got != 5*32 {
		t.Errorf("post-flush buffer = %v, want 160 B", got)
	}
}

func TestWifiFrameLossAccounting(t *testing.T) {
	// Heavy wifi loss forces MAC retry exhaustion on some burst frames:
	// the agent must count the losses and still terminate its bursts.
	h := newHarness(t, harnessOpts{
		nodes:        2,
		burstPackets: 100,
		wifiLoss:     0.6,
	})
	h.generate(0, 1, 400)
	h.sched.RunUntil(5 * time.Minute)
	st := h.agents[0].Stats()
	if st.FramesLost == 0 {
		t.Skip("no frames lost at this seed despite 60% loss (unlikely)")
	}
	if st.PacketsLost == 0 {
		t.Error("frames lost but no packets counted lost")
	}
	// All bursts must have terminated (no stuck sender).
	if st.BurstsSent != st.Handshakes {
		t.Errorf("bursts %d != handshakes %d: a burst never finished",
			st.BurstsSent, st.Handshakes)
	}
	// Conservation: PacketsLost is sender-side pessimism — when only the
	// MAC acks die, the data still arrives, so delivered + lost can
	// exceed generated. The two valid bounds:
	delivered := uint64(len(h.delivered[1]))
	buffered := uint64(h.agents[0].BufferedBytes() / 32)
	if delivered+buffered+st.PacketsDropped > 400 {
		t.Errorf("over-delivery: %d delivered + %d buffered + %d dropped > 400",
			delivered, buffered, st.PacketsDropped)
	}
	if delivered+buffered+st.PacketsDropped+st.PacketsLost < 400 {
		t.Errorf("unaccounted packets: %d delivered + %d buffered + %d dropped + %d lost < 400",
			delivered, buffered, st.PacketsDropped, st.PacketsLost)
	}
	// The radios must end up off.
	if h.agents[0].wifi.Transceiver().On() || h.agents[1].wifi.Transceiver().On() {
		t.Error("a wifi radio is still on after the run")
	}
}

func TestPacketString(t *testing.T) {
	p := Packet{Src: 1, Dst: 2, Seq: 3, Size: 32}
	if got := p.String(); got != "pkt 1->2 seq=3 size=32 B" {
		t.Errorf("String() = %q", got)
	}
}

package core

import (
	"testing"
	"time"

	"bulktx/internal/mac"
	"bulktx/internal/params"
	"bulktx/internal/radio"
	"bulktx/internal/units"
)

// White-box tests for handshake edge cases that statistical loss tests
// only reach probabilistically.

func TestDuplicateWakeupReAcksIdempotently(t *testing.T) {
	h := newHarness(t, harnessOpts{nodes: 2, burstPackets: 10})
	receiver := h.agents[1]

	msg := wakeupMsg{
		ID:     42,
		Origin: 0,
		Target: 1,
		Burst:  320,
		Path:   []int{0},
	}
	receiver.receiverAdmit(msg)
	if openSessions(receiver) != 1 {
		t.Fatal("no session created")
	}
	granted := receiver.openSession(0).granted
	usersAfterFirst := receiver.wifiUsers

	// The duplicate (sender's retry after a lost ack) must re-grant the
	// same amount without acquiring the radio again.
	receiver.receiverAdmit(msg)
	if got := receiver.openSession(0).granted; got != granted {
		t.Errorf("duplicate wakeup changed grant: %v -> %v", granted, got)
	}
	if receiver.wifiUsers != usersAfterFirst {
		t.Errorf("duplicate wakeup leaked a radio user: %d -> %d",
			usersAfterFirst, receiver.wifiUsers)
	}
}

func TestNewerHandshakeSupersedesStaleSession(t *testing.T) {
	h := newHarness(t, harnessOpts{nodes: 2, burstPackets: 10})
	receiver := h.agents[1]

	receiver.receiverAdmit(wakeupMsg{ID: 1, Origin: 0, Target: 1, Burst: 320, Path: []int{0}})
	if receiver.openSession(0).id != 1 {
		t.Fatal("first session missing")
	}
	users := receiver.wifiUsers

	receiver.receiverAdmit(wakeupMsg{ID: 2, Origin: 0, Target: 1, Burst: 320, Path: []int{0}})
	if id := receiver.openSession(0).id; id != 2 {
		t.Errorf("session id = %d, want 2 (superseded)", id)
	}
	// The stale session's radio reference was released, the new one
	// acquired: net zero.
	if receiver.wifiUsers != users {
		t.Errorf("radio users leaked across supersession: %d -> %d",
			users, receiver.wifiUsers)
	}
}

func TestStaleAckIgnored(t *testing.T) {
	h := newHarness(t, harnessOpts{nodes: 2, burstPackets: 10})
	sender := h.agents[0]
	h.generate(0, 1, 10) // starts handshake (curID = 1)
	if !sender.sending {
		t.Fatal("handshake not started")
	}
	// An ack for a different handshake must be ignored.
	sender.senderHandleAck(wakeupAck{ID: 99, Origin: 0, Target: 1, Granted: 320})
	if !sender.sending {
		t.Error("stale ack terminated the live handshake")
	}
	if sender.wifiUsers != 0 {
		t.Error("stale ack acquired the radio")
	}
}

func TestMalformedAckPathDropped(t *testing.T) {
	h := newHarness(t, harnessOpts{nodes: 3, burstPackets: 10})
	relay := h.agents[1]
	// An ack in transit with an exhausted path at a non-origin node is
	// malformed; it must be dropped without panic.
	relay.handleWakeupAck(wakeupAck{ID: 1, Origin: 0, Target: 2, Granted: 320, Path: nil})
}

func TestReceiverTimeoutReleasesRadio(t *testing.T) {
	h := newHarness(t, harnessOpts{nodes: 2, burstPackets: 10})
	receiver := h.agents[1]
	receiver.receiverAdmit(wakeupMsg{ID: 7, Origin: 0, Target: 1, Burst: 320, Path: []int{0}})
	if receiver.wifiUsers != 1 {
		t.Fatalf("wifiUsers = %d after admit", receiver.wifiUsers)
	}
	// No data ever arrives: the idle timer must fire and release.
	h.sched.RunUntil(5 * time.Second)
	if receiver.wifiUsers != 0 {
		t.Errorf("wifiUsers = %d after timeout, want 0", receiver.wifiUsers)
	}
	if st := receiver.Stats(); st.ReceiverTimeouts != 1 {
		t.Errorf("ReceiverTimeouts = %d, want 1", st.ReceiverTimeouts)
	}
	if x := receiver.wifi.Transceiver(); x.On() || x.Waking() {
		t.Error("radio still on after timeout")
	}
}

func TestZeroGrantWhenFullNoAck(t *testing.T) {
	h := newHarness(t, harnessOpts{
		nodes:        2,
		burstPackets: 10,
		cfgMut: func(i int, c *Config) {
			c.BufferCap = 10 * params.SensorPayload
		},
	})
	receiver := h.agents[1]
	// Fill the receiver's buffer by hand (packets not destined to it).
	receiver.buffers = []hopQueue{{nh: 0}}
	q := &receiver.buffers[0]
	for i := 0; i < 10; i++ {
		q.pkts = append(q.pkts,
			Packet{Src: 1, Dst: 0, Seq: uint64(i), Size: params.SensorPayload})
		q.bytes += params.SensorPayload
		receiver.bufferedBytes += params.SensorPayload
	}
	receiver.receiverAdmit(wakeupMsg{ID: 3, Origin: 0, Target: 1, Burst: 320, Path: []int{0}})
	if openSessions(receiver) != 0 {
		t.Error("full receiver created a session")
	}
	if st := receiver.Stats(); st.GrantsDenied != 1 {
		t.Errorf("GrantsDenied = %d, want 1", st.GrantsDenied)
	}
	if receiver.wifiUsers != 0 {
		t.Error("denied grant acquired the radio")
	}
}

func TestBurstFrameForAnotherTargetIgnored(t *testing.T) {
	h := newHarness(t, harnessOpts{nodes: 3, burstPackets: 10})
	bystander := h.agents[1]
	before := bystander.Stats()
	bystander.handleWifiFrame(wifiDataFrame(t, burstFrame{
		ID: 1, Origin: 0, Target: 2, Index: 1, Total: 1,
		Packets: []Packet{{Src: 0, Dst: 2, Seq: 1, Size: 32}},
	}))
	after := bystander.Stats()
	if after.PacketsDelivered != before.PacketsDelivered ||
		after.PacketsForwarded != before.PacketsForwarded {
		t.Error("bystander consumed a frame addressed to another target")
	}
}

func TestDuplicateBurstFrameCountedOnce(t *testing.T) {
	h := newHarness(t, harnessOpts{nodes: 2, burstPackets: 10})
	receiver := h.agents[1]
	receiver.receiverAdmit(wakeupMsg{ID: 5, Origin: 0, Target: 1, Burst: 64, Path: []int{0}})
	frame := burstFrame{
		ID: 5, Origin: 0, Target: 1, Index: 1, Total: 2,
		Packets: []Packet{{Src: 0, Dst: 1, Seq: 1, Size: 32}},
	}
	receiver.handleWifiFrame(wifiDataFrame(t, frame))
	receiver.handleWifiFrame(wifiDataFrame(t, frame)) // duplicate
	if st := receiver.Stats(); st.PacketsDelivered != 1 {
		t.Errorf("PacketsDelivered = %d, want 1 (duplicate suppressed)", st.PacketsDelivered)
	}
	// Session still open (frame 2 of 2 missing).
	if openSessions(receiver) != 1 {
		t.Error("session closed on duplicate")
	}
}

func TestTrailingDuplicateAfterCompletionIgnored(t *testing.T) {
	h := newHarness(t, harnessOpts{nodes: 2, burstPackets: 10})
	receiver := h.agents[1]
	receiver.receiverAdmit(wakeupMsg{ID: 6, Origin: 0, Target: 1, Burst: 32, Path: []int{0}})
	frame := burstFrame{
		ID: 6, Origin: 0, Target: 1, Index: 1, Total: 1,
		Packets: []Packet{{Src: 0, Dst: 1, Seq: 1, Size: 32}},
	}
	receiver.handleWifiFrame(wifiDataFrame(t, frame))
	if openSessions(receiver) != 0 {
		t.Fatal("session not closed on completion")
	}
	users := receiver.wifiUsers
	receiver.handleWifiFrame(wifiDataFrame(t, frame)) // trailing duplicate
	if openSessions(receiver) != 0 {
		t.Error("trailing duplicate resurrected the session")
	}
	if receiver.wifiUsers != users {
		t.Error("trailing duplicate changed radio users")
	}
}

func wifiDataFrame(t *testing.T, b burstFrame) (f frameAlias) {
	t.Helper()
	var size units.ByteSize
	for _, p := range b.Packets {
		size += p.Size
	}
	return frameAlias{
		Kind:    frameKindData,
		Dst:     frameNodeID(b.Target),
		Size:    size + params.WifiHeader,
		Payload: &b,
	}
}

// openSessions counts an agent's open receive sessions.
func openSessions(a *Agent) int {
	n := 0
	for _, s := range a.recv {
		if s.open {
			n++
		}
	}
	return n
}

// Aliases keep the frame-construction helper readable.
type frameAlias = radio.Frame

const frameKindData = radio.KindData

func frameNodeID(i int) radio.NodeID { return radio.NodeID(i) }

// Control messages come from per-agent pools that restart only when the
// sensor MAC queue is empty, so two acks queued back to back must each
// arrive with their own content.
func TestQueuedControlMessagesKeepTheirContent(t *testing.T) {
	h := newHarness(t, harnessOpts{nodes: 2, burstPackets: 10})
	receiver := h.agents[1]
	acks := &ackRecorder{}
	h.agents[0].sensor.SetUpper(acks)
	receiver.receiverAdmit(wakeupMsg{ID: 1, Origin: 0, Target: 1, Burst: 320, Path: []int{0}})
	receiver.receiverAdmit(wakeupMsg{ID: 2, Origin: 0, Target: 1, Burst: 320, Path: []int{0}})
	if n := receiver.sensor.QueueLen(); n != 2 {
		t.Fatalf("receiver's sensor MAC holds %d frames, want both acks", n)
	}
	h.sched.RunUntil(time.Second)
	if got := acks.ids; len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("sender received acks %v, want [1 2]", got)
	}
}

// ackRecorder takes a sensor MAC's upcalls in place of its agent and
// keeps the IDs of the wake-up acks delivered.
type ackRecorder struct{ ids []uint64 }

func (r *ackRecorder) Receive(f radio.Frame) {
	if ack, ok := f.Payload.(*wakeupAck); ok {
		r.ids = append(r.ids, ack.ID)
	}
}

func (r *ackRecorder) Sent(radio.Frame) {}

func (r *ackRecorder) Dropped(radio.Frame, mac.DropReason) {}

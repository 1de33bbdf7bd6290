package radio

import (
	"errors"
	"testing"
	"time"

	"bulktx/internal/energy"
)

func TestFailedTransceiverIsSilent(t *testing.T) {
	sched, ch, xs := testNet(t, 2, nil)
	var got []Frame
	xs[1].SetOnReceive(func(f Frame) { got = append(got, f) })

	xs[1].SetFailed(true)
	if xs[1].On() {
		t.Error("failed transceiver reports On")
	}
	if !xs[1].Failed() {
		t.Error("Failed() false after SetFailed(true)")
	}
	if err := xs[0].Transmit(Frame{Kind: KindData, Dst: 1, Size: 43}); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if len(got) != 0 {
		t.Fatalf("failed node received %d frames", len(got))
	}
	if err := xs[1].Transmit(Frame{Kind: KindData, Dst: 0, Size: 43}); !errors.Is(err, ErrRadioOff) {
		t.Errorf("Transmit on failed node: %v, want ErrRadioOff", err)
	}

	// Recovery restores the pre-failure (always-on) state.
	xs[1].SetFailed(false)
	if !xs[1].On() {
		t.Error("recovered transceiver not On")
	}
	if err := xs[0].Transmit(Frame{Kind: KindData, Dst: 1, Size: 43}); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if len(got) != 1 {
		t.Fatalf("recovered node received %d frames, want 1", len(got))
	}
	if st := ch.Stats(); st.Deliveries != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestFailureAbortsReceptionAndBlocksPowerOn(t *testing.T) {
	sched, _, xs := testNet(t, 2, nil)
	var got int
	xs[1].SetOnReceive(func(Frame) { got++ })
	if err := xs[0].Transmit(Frame{Kind: KindData, Dst: 1, Size: 430}); err != nil {
		t.Fatal(err)
	}
	// Crash mid-reception (the frame is still on the air): the arrival
	// must abort, not deliver.
	xs[1].SetFailed(true)
	sched.Run()
	if got != 0 {
		t.Error("aborted reception still delivered")
	}
	if xs[1].Meter().State() != energy.Off {
		t.Errorf("failed node meter in %v, want Off", xs[1].Meter().State())
	}

	// PowerOn cannot take effect while failed, but the request survives
	// the outage: the recovery reboot starts the wake-up, so protocol
	// logic parked on onWake is released rather than deadlocked.
	if err := xs[1].PowerOff(); err != nil {
		t.Fatal(err)
	}
	xs[1].PowerOn()
	if xs[1].On() || xs[1].Waking() {
		t.Error("PowerOn took effect on a failed node")
	}
	xs[1].SetFailed(false)
	sched.Run()
	if !xs[1].On() {
		t.Error("wake requested during the outage did not resume on recovery")
	}
}

// A crash mid-wake must not strand whoever waits on the wake callback:
// the recovery reboot restarts the interrupted wake-up.
func TestFailureDuringWakeResumesOnRecovery(t *testing.T) {
	sched, _, xs := testNet(t, 2, func(c *Config) {
		c.WakeupLatency = 50 * time.Millisecond
	})
	if err := xs[1].PowerOff(); err != nil {
		t.Fatal(err)
	}
	woke := 0
	xs[1].SetOnWake(func() { woke++ })
	xs[1].PowerOn()
	if !xs[1].Waking() {
		t.Fatal("not waking after PowerOn")
	}
	xs[1].SetFailed(true)
	sched.Run()
	if woke != 0 || xs[1].On() {
		t.Fatal("crashed node completed its wake-up")
	}
	xs[1].SetFailed(false)
	sched.Run()
	if woke != 1 {
		t.Errorf("onWake fired %d times after recovery, want 1", woke)
	}
	if !xs[1].On() {
		t.Error("radio not up after the recovery reboot")
	}
	// An explicit shutdown cancels the pending reboot wake.
	xs2 := xs[0]
	if err := xs2.PowerOff(); err != nil {
		t.Fatal(err)
	}
	xs2.PowerOn()
	xs2.SetFailed(true)
	if err := xs2.PowerOff(); err != nil {
		t.Fatal(err)
	}
	xs2.SetFailed(false)
	sched.Run()
	if xs2.On() || xs2.Waking() {
		t.Error("PowerOff during outage did not cancel the reboot wake")
	}
}

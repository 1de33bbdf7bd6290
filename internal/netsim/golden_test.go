package netsim

import (
	"testing"
	"time"

	"bulktx/internal/params"
)

// goldenLossy pins the probabilistic path: a distance-dependent loss
// model draws from the channel RNG on every reception, so any change
// to event order, neighbor iteration order or the loss draws
// themselves desynchronizes the RNG stream and moves this hash.
// Regenerate with:
//
//	go test ./internal/netsim -run GoldenFingerprintLossy -v
//
// after any intentional behavior change (and say so in the PR).
const goldenLossy = "1c2a2ae673d10215c3b2df7825974c00370dde55c360dbce490c2ab04aeb9e04"

// TestGoldenFingerprintLossyScenario holds a sensor run under
// DistanceLoss to its committed fingerprint.
func TestGoldenFingerprintLossyScenario(t *testing.T) {
	s, err := NewScenario(
		WithModel(ModelSensor),
		WithSenders(5),
		WithWorkload(CBRWorkload(params.HighRate)),
		WithLinks(LinkModel{SensorLossAt: DistanceLoss(0, 0.4, 40)}),
		WithDuration(scenarioDuration),
		WithSeed(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunScenario(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.SensorStats.NoiseLosses == 0 {
		t.Fatal("lossy scenario lost nothing; the golden is not exercising the RNG path")
	}
	if got := fingerprint(t, res); got != goldenLossy {
		t.Errorf("lossy run drifted from its golden:\n got %s\nwant %s", got, goldenLossy)
	}
}

// goldenScaling10k pins NewScalingScenario(10000, 2 s): a 100x100 grid
// at exact 40 m spacing with 100 CBR senders, about 600 pending events
// at peak. Regenerate with:
//
//	go test ./internal/netsim -run ScalingFingerprint10k -v
//
// after any intentional behavior change (and say so in the PR).
const goldenScaling10k = "5369484b35277d748b7456aa0a767050a2751706429370f1a2dba01e7dac48a6"

// TestScalingFingerprint10kGrid holds the committed large-grid
// baseline: the spatial-hash neighbor rows and the event heap at a
// node count where a dense neighbor table would be O(N^2).
func TestScalingFingerprint10kGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-node grid runs take a few seconds")
	}
	s, err := NewScalingScenario(10000, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunScenario(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(t, res); got != goldenScaling10k {
		t.Errorf("10k grid fingerprint drifted:\n got %s\nwant %s", got, goldenScaling10k)
	}
}

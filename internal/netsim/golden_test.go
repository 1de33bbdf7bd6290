package netsim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
	"time"

	"bulktx/internal/trace"
)

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

// optionMatrixGolden is one option-matrix case's committed hashes:
// the Result JSON and, for traced cases, the Recording JSON.
type optionMatrixGolden struct {
	result, recording string
}

// goldenOptionMatrix pins the wiring the default-option goldens never
// reach: traced runs (state, provenance and sample streams), churn
// with lossy links on both radios, on/off traffic on a linear
// topology, the dual model's extensions, and the layouts and sink
// that only Config fields select: a uniform and a clustered topology
// and an explicit Sink. Regenerate with:
//
//	go test ./internal/netsim -run GoldenFingerprintOptionMatrix -v
//
// after any intentional behavior change (and say so in the PR).
var goldenOptionMatrix = map[string]optionMatrixGolden{
	"sensor/traced":            {"eda3fc2d6f645fe968d75a556b0720da3b4d05f9f98e9f619e24a3be999738a0", "904a1a73c3193da1aed48a9e8a8960a2ff8a12617a1d1958e5e28b2382757002"},
	"sensor/churn-loss":        {"534534a323a27a65839a18ebabe5685809ecba6df0d48e9228e202af23745c9b", ""},
	"sensor/churn-loss-traced": {"9657594cff77d30b21bf48ec4b8d912c3500ba15b24ea4a9089c2fe61ec2c072", "db3e2abff7e065db47b983455736738d57701ddb08ee4c7c7a05829e4ce311b9"},
	"sensor/onoff-linear":      {"c19984e058275a718e6f9554c20baab8a3d864c624eae7cccd17128a20e66865", ""},
	"wifi/traced":              {"5298790998464dc316a61660bbbd6f6d7367a796f7ab87a529231c0d5d5582aa", "4aeab583e31bc3c238e7aef5c6a61308a7ab6dffda1047350f5c074218a2d4a1"},
	"wifi/churn-loss":          {"6536fa6ed1bd5f2191134b553c5687ba19bfec36312e3cca359806c87ea8bdd0", ""},
	"wifi/churn-loss-traced":   {"aa50b4c5382081b18614657441845fde128ca2fc89fbc96db3f5654fa27d8ac7", "c4455b8c544c8e11a6d07937f060a129853a27427357395389b7a6e101663a91"},
	"wifi/onoff-linear":        {"4aae7662a6f7baf5bb994c5d7dec509edfac92e80683335b62079e61400c86e1", ""},
	"dual/traced":              {"e0af2f1b6b67c9a51e9ebe2711fbe2f6e44bc23c23269c5ce4f069235b2805d8", "1222f8b3b36cc0182cad90e542ff0ad6e8ccf2786e9b7ac5e43e65e061d7ffc6"},
	"dual/churn-loss":          {"2d4a997a6f87c27d3f9c01f6b1567c5389fd988f51e9be3d62b5d7926c7822aa", ""},
	"dual/churn-loss-traced":   {"148b62c835b1a7f2924abd97eb2a73f6293fd02e8f0fdced5b6d69f629670039", "7ee2e4cbcf1fe1384e0a695853eb2dea485505fe8e1996f98bbcb3f6ddaed727"},
	"dual/onoff-linear":        {"b976f4b82cc046ddcdb055c620b393f63318f734c7406636d60c92413b1ca872", ""},
	"dual/extensions":          {"05e93ff16bc1d354096f94981c0958032258e38fa911a7b668c823627e6cdbe2", ""},
	"dual/extensions-traced":   {"18392514f166645df13a142044e168d2200a515182705c201d9b0d74e0d5f767", "ff6af74b8da91d1a4f9b83104ce928bee4d0d7d6333a6e33ce3c0c3f4f5f619a"},
	"sensor/uniform":           {"5c296f084850804265d6f6655a551cb83675611ae4aee050bd6d572fcc46dacb", ""},
	"dual/clustered":           {"0d7dc722c4fc2697656e630116ea212453160c32eef7549d9d3ee123059ff532", ""},
	"dual/sink-corner":         {"904d9cd855e8be15d03e7f7ef20596e11b190349e489d498e4500e71500898f7", ""},
}

// TestGoldenFingerprintOptionMatrix holds each option-matrix case,
// all on shortConfig, to its committed Result and Recording hashes.
func TestGoldenFingerprintOptionMatrix(t *testing.T) {
	traced := trace.Options{Packets: true, States: true, SampleEvery: 10 * time.Second}
	type matrixCase struct {
		name   string
		cfg    Config
		traced bool
	}
	var cases []matrixCase
	for _, m := range []struct {
		name  string
		model Model
	}{{"sensor", ModelSensor}, {"wifi", ModelWifi}, {"dual", ModelDual}} {
		base := shortConfig(m.model, 5, 100, 1)
		churn := base
		churn.ChurnRate = 20
		churn.SensorLoss, churn.WifiLoss = 0.05, 0.05
		onoff := base
		onoff.Traffic = TrafficOnOff
		onoff.Topology = TopoLinear
		onoff.Field = 175
		cases = append(cases,
			matrixCase{m.name + "/traced", base, true},
			matrixCase{m.name + "/churn-loss", churn, false},
			matrixCase{m.name + "/churn-loss-traced", churn, true},
			matrixCase{m.name + "/onoff-linear", onoff, false},
		)
	}
	ext := shortConfig(ModelDual, 10, 20, 1)
	ext.UseShortcutLearner = true
	ext.MinGrantPackets = 5
	ext.AdaptiveThresholdAlpha = 0.5
	ext.DelayBound = 20 * time.Second
	ext.PostBurstLinger = time.Second
	uniform := shortConfig(ModelSensor, 5, 100, 1)
	uniform.Topology = TopoUniform
	uniform.Field = 150
	clustered := shortConfig(ModelDual, 5, 100, 1)
	clustered.Topology = TopoClustered
	clustered.Clusters = 3
	corner := shortConfig(ModelDual, 5, 100, 1)
	corner.Sink = 0
	cases = append(cases,
		matrixCase{"dual/extensions", ext, false},
		matrixCase{"dual/extensions-traced", ext, true},
		matrixCase{"sensor/uniform", uniform, false},
		matrixCase{"dual/clustered", clustered, false},
		matrixCase{"dual/sink-corner", corner, false},
	)

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var extra []Option
			if tc.traced {
				extra = append(extra, WithTrace(traced))
			}
			s, err := tc.cfg.Scenario(extra...)
			if err != nil {
				t.Fatal(err)
			}
			res, err := RunScenario(s)
			if err != nil {
				t.Fatal(err)
			}
			var got optionMatrixGolden
			got.result = fingerprint(t, res)
			if tc.traced {
				if res.Trace == nil {
					t.Fatal("traced run has no recording")
				}
				enc, err := json.Marshal(res.Trace)
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(enc)
				got.recording = hex.EncodeToString(sum[:])
			}
			t.Logf("%q: {%q, %q},", tc.name, got.result, got.recording)
			if want := goldenOptionMatrix[tc.name]; got != want {
				t.Errorf("option-matrix case drifted from its golden:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

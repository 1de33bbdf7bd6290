package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"bulktx/internal/netsim"
)

// goldenScaling10k is the fingerprint — sha256 of the JSON-encoded
// Result — of NewScalingScenario(10000, 2 s) at run seed 1, the value
// internal/netsim's large-grid golden test pins.
const goldenScaling10k = "5369484b35277d748b7456aa0a767050a2751706429370f1a2dba01e7dac48a6"

const (
	scaleNodes    = 10000
	scaleDuration = 2 * time.Second
)

// runScale10k runs the 100x100 scaling grid one simulation at a time
// with run seed = workload seed, in a closed loop, until the window
// ends. Each op is one run. With seed 1 every op must hash to
// goldenScaling10k; with any other seed every op must equal the
// run's first op.
//
// At about 0.6 s per op a window of the length the benchmark runs
// holds fewer than minOpsForP90 ops, so this workload reports no
// op_p90_ms and is not one of the workloads BENCHMARK.json lists.
func runScale10k(o options, spans *spanLog) (*measurement, error) {
	m := &measurement{layers: map[string]float64{}}
	var (
		s      *netsim.Scenario
		builds []time.Duration
	)
	for i := range setupReps {
		start := time.Now()
		var err error
		if s, err = netsim.NewScalingScenario(scaleNodes, scaleDuration); err != nil {
			return nil, err
		}
		end := time.Now()
		m.setups = append(m.setups, end.Sub(start))
		builds = append(builds, end.Sub(start))
		spans.add(fmt.Sprintf("setup%d", i), "netsim.build", "", start, end)
	}

	runSeed, want := scalePlan(o.seed)
	var first netsim.Result
	prof, err := startProcTrace(spans != nil)
	if err != nil {
		return nil, err
	}
	u0 := selfUsage()
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds) * time.Second)
	for k := 0; time.Now().Before(deadline); k++ {
		t0 := time.Now()
		runs, err := netsim.RunScenarioMany(s, 1, runSeed)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		m.ops = append(m.ops, t1.Sub(t0))
		spans.add(fmt.Sprintf("op%d", k), "netsim.run", "", t0, t1)
		res := runs[0]
		m.events += res.Events
		sum, err := fingerprint(res)
		if err != nil {
			return nil, err
		}
		if k == 0 {
			first = res
			if want == "" {
				want = sum
			}
		}
		if sum != want {
			m.failed++
		}
	}
	m.wall = time.Since(start)
	u1 := selfUsage()
	m.peakRSS, m.cpu = u1.peakRSS, u1.cpu-u0.cpu
	m.attempted = len(m.ops)
	prof.stop(m)
	addResultCounts(m.layers, []netsim.Result{first})
	m.layers["netsim.build_ms"] = ms(median(builds))
	m.inputs = map[string]any{
		"nodes":          scaleNodes,
		"horizon_s":      scaleDuration.Seconds(),
		"events_per_op":  first.Events,
		"run_seed":       runSeed,
		"fingerprint":    want,
		"concurrent_ops": 1,
	}
	return m, nil
}

// scalePlan returns the run seed every op of a workload seed uses —
// the workload seed itself — and the fingerprint every op must have:
// goldenScaling10k for seed 1, otherwise "" (the first op's).
func scalePlan(seed int64) (runSeed int64, want string) {
	if seed == 1 {
		return seed, goldenScaling10k
	}
	return seed, ""
}

// fingerprint is the hex sha256 of a result's JSON encoding.
func fingerprint(res netsim.Result) (string, error) {
	enc, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(enc)
	return hex.EncodeToString(sum[:]), nil
}

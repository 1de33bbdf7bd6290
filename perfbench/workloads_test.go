package main

import (
	"testing"
)

// TestWorkloadsSmoke runs the listed workloads for one second each —
// serve-mixed traced, so the transport, the spans and the profile are
// exercised too — and expects every op's output check to pass.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workloads for a few seconds")
	}
	for _, c := range []struct {
		name   string
		traced bool
	}{{"paper-quick", false}, {"serve-mixed", true}} {
		var spans *spanLog
		if c.traced {
			spans = newSpanLog()
		}
		m, err := workloads[c.name](options{workload: c.name, seed: 1, seconds: 1}, spans)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if m.attempted == 0 || m.failed != 0 || len(m.ops) != m.attempted {
			t.Errorf("%s: attempted %d, failed %d, %d op latencies", c.name, m.attempted, m.failed, len(m.ops))
		}
		if got := endToEnd(m); len(got) < len(endToEndUnits)-1 {
			t.Errorf("%s: end-to-end metrics %v", c.name, got)
		}
		if !c.traced {
			continue
		}
		v, err := perLayer(m, m)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var cpu float64
		for _, l := range layers {
			cpu += v[l+".self_ms"].Value
		}
		if len(v) != len(perLayerUnits) || cpu == 0 || len(spans.spans) == 0 {
			t.Errorf("%s: %d per-layer metrics, %v ms profiled per op, %d spans",
				c.name, len(v), cpu, len(spans.spans))
		}
	}
}

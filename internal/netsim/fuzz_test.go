package netsim

import (
	"strings"
	"testing"
	"time"

	"bulktx/internal/energy"
	"bulktx/internal/units"
)

// FuzzConfig decodes fuzzed values into a small Config — at most 64
// nodes on any topology kind (or an unknown one), any sink, sender
// and cluster count, field, wifi radio and range, topology and run
// seed, and churn — and builds it without running it. The property:
// a config that Validate accepts builds, or fails only because its
// layout is not connected at the range its model routes over, so
// Validate is the whole check a caller needs before queueing a run.
// Duration and churn downtime take any nanosecond count: Validate
// bounds the churn schedule a build draws.
func FuzzConfig(f *testing.F) {
	f.Add(uint8(3), uint8(0), uint8(36), uint8(5), int8(-1), int8(0), 200.0, 40.0, uint8(2), int64(0), int64(1), int64(60*time.Second), 0.0, int64(0))
	f.Add(uint8(1), uint8(4), uint8(2), uint8(1), int8(1), int8(0), 10.0, 10.0, uint8(2), int64(0), int64(1), int64(100*time.Second), 0.0, int64(0))
	f.Fuzz(func(t *testing.T, model, topology, nodes, senders uint8, sink, clusters int8,
		field, wifiRange float64, wifiProfile uint8, topoSeed, seed int64,
		duration int64, churnRate float64, churnDown int64) {
		kinds := []string{"", TopoGrid, TopoUniform, TopoClustered, TopoLinear, "torus"}
		profiles := energy.Table1()
		cfg := DefaultConfig(Model(model%4), int(senders%65), 100, seed)
		cfg.Topology = kinds[int(topology)%len(kinds)]
		cfg.Nodes = int(nodes % 65)
		cfg.Field = units.Meters(field)
		cfg.Sink = int(sink)
		cfg.Clusters = int(clusters)
		cfg.TopologySeed = topoSeed
		cfg.WifiProfile = profiles[int(wifiProfile)%len(profiles)]
		cfg.WifiRange = units.Meters(wifiRange)
		cfg.Duration = time.Duration(duration)
		cfg.ChurnRate = churnRate
		cfg.ChurnMeanDowntime = time.Duration(churnDown)
		if cfg.Validate() != nil {
			return
		}
		if _, err := cfg.Scenario(); err != nil && !strings.Contains(err.Error(), "is not connected") {
			t.Fatalf("valid config %+v failed to build: %v", cfg, err)
		}
	})
}

package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"bulktx/internal/netsim"
	"bulktx/internal/sweep"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestPrototypeGolden pins every simulated experiment's rendered table
// at tinyScale byte for byte (Figures 11 and 12 ignore the scale), so
// any change to how a grid's runs are built, charged or summarized
// shows up as a diff. Regenerate with `go test ./internal/experiments
// -run PrototypeGolden -update` after an intentional change.
func TestPrototypeGolden(t *testing.T) {
	for _, name := range []string{
		"fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
		"ablation-shortcut", "ablation-linger", "ablation-mingrant", "ablation-loss",
		"ablation-adaptive", "ablation-delaybound", "ablation-topology", "ablation-churn",
	} {
		t.Run(name, func(t *testing.T) {
			tbl, err := Run(name, tinyScale())
			if err != nil {
				t.Fatal(err)
			}
			got := []byte(tbl.Render())
			golden := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to regenerate)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s drifted from %s (run with -update if intentional)\ngot:\n%s\nwant:\n%s",
					name, golden, got, want)
			}
		})
	}
}

// TestPrototypeFiguresShareOneBatch runs Figures 11 and 12 on a fresh
// engine: together they simulate the 19 dual cells and the one sensor
// cell, and the second figure finds every cell cached.
func TestPrototypeFiguresShareOneBatch(t *testing.T) {
	old := engine
	defer func() { engine = old }()
	cache := sweep.NewCache()
	ConfigureEngine(2, cache)
	if _, err := Fig11(); err != nil {
		t.Fatal(err)
	}
	if _, err := Fig12(); err != nil {
		t.Fatal(err)
	}
	if n := cache.Stats().Entries; n != 20 {
		t.Errorf("Fig11 then Fig12 left %d cache entries, want 20", n)
	}
	cfgs := []netsim.Config{netsim.PrototypeConfig(netsim.ModelSensor, 0, prototypeMessages, prototypeInterval)}
	for _, th := range prototypeThresholds() {
		cfgs = append(cfgs, netsim.PrototypeConfig(netsim.ModelDual, th, prototypeMessages, prototypeInterval))
	}
	for _, cfg := range cfgs {
		key, err := sweep.Key(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := cache.Get(key); !ok {
			t.Errorf("%v cell with burst %d not cached", cfg.Model, cfg.BurstPackets)
		}
	}
}

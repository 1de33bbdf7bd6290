package bulktx_test

import (
	"strings"
	"testing"
	"time"

	"bulktx"
)

func TestTable1(t *testing.T) {
	profiles := bulktx.Table1()
	if len(profiles) != 6 {
		t.Fatalf("Table1 has %d radios, want 6", len(profiles))
	}
	if _, err := bulktx.RadioByName("Micaz"); err != nil {
		t.Errorf("RadioByName(Micaz): %v", err)
	}
	if _, err := bulktx.RadioByName("nope"); err == nil {
		t.Error("RadioByName(nope) did not error")
	}
}

func TestBreakEvenThroughFacade(t *testing.T) {
	micaz, err := bulktx.RadioByName("Micaz")
	if err != nil {
		t.Fatal(err)
	}
	lucent, err := bulktx.RadioByName("Lucent (11Mbps)")
	if err != nil {
		t.Fatal(err)
	}
	m, err := bulktx.NewBreakEvenModel(micaz, lucent,
		bulktx.WithIdleTime(10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.BreakEven()
	if err != nil {
		t.Fatal(err)
	}
	if s <= 0 {
		t.Errorf("s* = %v", s)
	}
}

func TestSimulationThroughFacade(t *testing.T) {
	cfg := bulktx.NewSimConfig(bulktx.ModelDual, 5, 100, 1)
	cfg.Duration = 120 * time.Second
	cfg.Rate = 2 * bulktx.Kbps
	res, err := bulktx.RunSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Goodput() <= 0.5 {
		t.Errorf("goodput = %.3f", res.Goodput())
	}
	many, err := bulktx.RunSimulations(cfg, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(many) != 2 {
		t.Fatalf("runs = %d", len(many))
	}
}

func TestScenarioThroughFacade(t *testing.T) {
	cfg := bulktx.NewSimConfig(bulktx.ModelDual, 5, 100, 1)
	cfg.Duration = 120 * time.Second
	cfg.Topology, cfg.Clusters = "clustered", 4
	cfg.Rate = 2 * bulktx.Kbps
	cfg.SensorLoss = 0.05
	cfg.ChurnRate, cfg.ChurnMeanDowntime = 2, 30*time.Second
	s, err := cfg.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	res, err := bulktx.RunScenario(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Goodput() <= 0.5 {
		t.Errorf("goodput = %.3f", res.Goodput())
	}
	many, err := bulktx.RunScenarioMany(s, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(many) != 2 {
		t.Fatalf("runs = %d", len(many))
	}
	bad := cfg
	bad.Senders = -1
	if _, err := bad.Scenario(); err == nil {
		t.Error("invalid scenario accepted through facade")
	}
}

func TestMultiHopConfigThroughFacade(t *testing.T) {
	cfg := bulktx.NewMultiHopSimConfig(5, 100, 1)
	if cfg.WifiRange != 250 {
		t.Errorf("MH wifi range = %v, want 250 m", cfg.WifiRange)
	}
}

func TestPrototypeThroughFacade(t *testing.T) {
	for _, model := range []bulktx.SimModel{bulktx.ModelDual, bulktx.ModelSensor} {
		res, err := bulktx.RunSimulation(bulktx.NewPrototypeConfig(model, 2000, 100, 100*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Delays) != 100 {
			t.Errorf("%v: delivered %d/100", model, len(res.Delays))
		}
		if res.EnergyPerPacket() <= 0 {
			t.Errorf("%v: energy per packet not positive", model)
		}
	}
}

func TestExperimentsThroughFacade(t *testing.T) {
	names := bulktx.Experiments()
	if len(names) < 13 {
		t.Fatalf("only %d experiments registered", len(names))
	}
	tbl, err := bulktx.RunExperiment("table1", bulktx.QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl.Render(), "1400") {
		t.Error("table1 render missing data")
	}
	if _, err := bulktx.RunExperiment("nope", bulktx.QuickScale()); err == nil {
		t.Error("unknown experiment did not error")
	}
}

func TestScales(t *testing.T) {
	full := bulktx.FullScale()
	quick := bulktx.QuickScale()
	if full.Duration != 5000*time.Second || full.Runs != 20 {
		t.Errorf("FullScale = %+v, want the paper's 5000 s / 20 runs", full)
	}
	if quick.Duration >= full.Duration || quick.Runs >= full.Runs {
		t.Error("QuickScale not smaller than FullScale")
	}
}

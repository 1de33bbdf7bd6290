package main

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bulktx"
	"bulktx/internal/cli"
)

func mustParse(t *testing.T, args ...string) options {
	t.Helper()
	o, err := parseFlags(flag.NewFlagSet("test", flag.ContinueOnError), args)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestBuildConfigTopologies(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{}, ""},
		{[]string{"-topology", "grid"}, ""},
		{[]string{"-topology", "uniform", "-field", "150", "-topo-seed", "3"}, "uniform"},
		{[]string{"-topology", "clustered", "-clusters", "4"}, "clustered"},
		{[]string{"-topology", "linear", "-nodes", "24"}, "linear"},
	} {
		cfg, err := buildConfig(mustParse(t, tc.args...))
		if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if cfg.Topology != tc.want {
			t.Errorf("%v: topology = %q, want %q", tc.args, cfg.Topology, tc.want)
		}
	}
	cfg, err := buildConfig(mustParse(t, "-topology", "linear", "-nodes", "24", "-field", "120"))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Nodes != 24 || cfg.Field != 120 {
		t.Errorf("nodes/field = %d/%v", cfg.Nodes, cfg.Field)
	}
	if _, err := buildConfig(mustParse(t, "-topology", "torus")); err == nil {
		t.Error("unknown topology accepted")
	}
}

func TestBuildConfigChurn(t *testing.T) {
	cfg, err := buildConfig(mustParse(t, "-churn", "2.5", "-churn-down", "30s"))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.ChurnRate != 2.5 || cfg.ChurnMeanDowntime != 30*time.Second {
		t.Errorf("churn = %v/%v", cfg.ChurnRate, cfg.ChurnMeanDowntime)
	}
	if _, err := buildConfig(mustParse(t, "-churn", "-1")); err == nil {
		t.Error("negative churn accepted")
	}
}

func TestBuildConfigErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-case", "xx"},
		{"-model", "quantum"},
		{"-traffic", "fractal"},
		{"-senders", "0"},
	} {
		if _, err := buildConfig(mustParse(t, args...)); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

// Non-finite and negative flag values fail validation as usage errors
// (exit status 2) naming the config field, before any run.
func TestBuildConfigRejectsNonFinite(t *testing.T) {
	for _, tc := range []struct {
		args  []string
		field string
	}{
		{[]string{"-churn", "NaN"}, "ChurnRate"},
		{[]string{"-churn", "+Inf"}, "ChurnRate"},
		{[]string{"-rate", "+Inf"}, "Rate"},
		{[]string{"-rate", "NaN"}, "Rate"},
		{[]string{"-rate", "-1"}, "Rate"},
		{[]string{"-loss", "NaN"}, "SensorLoss"},
		{[]string{"-adaptive", "+Inf"}, "AdaptiveThresholdAlpha"},
	} {
		_, err := buildConfig(mustParse(t, tc.args...))
		var u *cli.UsageError
		var fe *bulktx.ConfigFieldError
		if !errors.As(err, &u) || !errors.As(err, &fe) || fe.Field != tc.field {
			t.Errorf("%v: %v, want a usage error naming %s", tc.args, err, tc.field)
		}
	}
}

// Every named topology plus churn runs end-to-end through the CLI
// entry point.
func TestRunEndToEndAcrossScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, args := range [][]string{
		{"-duration", "60s", "-runs", "1", "-senders", "5", "-rate", "2"},
		{"-topology", "uniform", "-field", "150", "-topo-seed", "1",
			"-duration", "60s", "-runs", "1", "-senders", "5", "-rate", "2"},
		{"-topology", "clustered", "-duration", "60s", "-runs", "1",
			"-senders", "5", "-rate", "2"},
		{"-topology", "linear", "-duration", "60s", "-runs", "1",
			"-senders", "5", "-rate", "2"},
		{"-churn", "4", "-churn-down", "20s", "-duration", "60s", "-runs", "1",
			"-senders", "5", "-rate", "2"},
	} {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

// The partitioned-deployment diagnostic reaches the CLI user intact.
func TestRunReportsConnectivityError(t *testing.T) {
	err := run([]string{"-topology", "uniform", "-topo-seed", "2",
		"-duration", "30s", "-runs", "1"})
	if err == nil || !strings.Contains(err.Error(), "not connected") {
		t.Errorf("err = %v, want connectivity diagnostic", err)
	}
}

func TestMeterAliasCompiles(t *testing.T) {
	var m bulktx.Meters = 200
	if float64(m) != 200 {
		t.Error("Meters alias broken")
	}
}

func TestTraceFlagsImplyTracedRun(t *testing.T) {
	o := mustParse(t, "-trace-jsonl", "x.jsonl")
	if !o.wantTrace() {
		t.Error("-trace-jsonl did not imply a traced run")
	}
	o = mustParse(t, "-trace-sample", "30s")
	if !o.wantTrace() {
		t.Error("-trace-sample did not imply a traced run")
	}
	if mustParse(t).wantTrace() {
		t.Error("default flags request a traced run")
	}
}

func TestRunEndToEndTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	jsonl := filepath.Join(dir, "trace.jsonl")
	events := filepath.Join(dir, "events.csv")
	energy := filepath.Join(dir, "energy.csv")
	err := run([]string{
		"-duration", "60s", "-runs", "1", "-senders", "5", "-rate", "2",
		"-trace", "-trace-sample", "20s",
		"-trace-jsonl", jsonl, "-trace-events-csv", events, "-trace-energy-csv", energy,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{jsonl, events, energy} {
		info, err := os.Stat(path)
		if err != nil {
			t.Fatalf("export missing: %v", err)
		}
		if info.Size() == 0 {
			t.Errorf("export %s is empty", path)
		}
	}
}

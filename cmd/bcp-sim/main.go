// Command bcp-sim runs one network simulation of the paper's Section 4.1
// evaluation and reports goodput, normalized energy and delay.
//
// Usage:
//
//	bcp-sim -model dual -case sh -senders 15 -burst 500
//	bcp-sim -model sensor -case mh -senders 35 -duration 5000s -runs 20
//	bcp-sim -topology linear -nodes 24 -field 180 -senders 8
//	bcp-sim -topology uniform -nodes 36 -field 150 -topo-seed 3
//	bcp-sim -topology clustered -clusters 4 -churn 2 -churn-down 30s
//
// Topologies beyond the paper's grid ("uniform", "clustered", "linear")
// and the churn model come from the Scenario API; the flags compile to
// the same netsim.Config the sweep engine uses.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"bulktx"
	"bulktx/internal/cli"
	"bulktx/internal/netsim"
	"bulktx/internal/sweep"
	"bulktx/internal/telemetry"
)

func main() {
	cli.Exit("bcp-sim", run(os.Args[1:]))
}

// options carries the parsed command line.
type options struct {
	model     string
	scenario  string
	senders   int
	burst     int
	rate      float64
	duration  time.Duration
	runs      int
	seed      int64
	loss      float64
	shortcut  bool
	traffic   string
	bound     time.Duration
	adaptive  float64
	topology  string
	nodes     int
	field     float64
	topoSeed  int64
	clusters  int
	churn     float64
	churnDown time.Duration

	trace          bool
	sample         time.Duration
	traceJSONL     string
	traceEventsCSV string
	traceEnergyCSV string

	tel *telemetry.Flags
}

// wantTrace reports whether any flag requests a traced run.
func (o options) wantTrace() bool {
	return o.trace || o.sample > 0 ||
		o.traceJSONL != "" || o.traceEventsCSV != "" || o.traceEnergyCSV != ""
}

func parseFlags(fs *flag.FlagSet, args []string) (options, error) {
	var o options
	fs.StringVar(&o.model, "model", "dual", "evaluation model: sensor|wifi|dual")
	fs.StringVar(&o.scenario, "case", "sh", "radio case: sh (Lucent 11 Mbps) | mh (Cabletron one hop)")
	fs.IntVar(&o.senders, "senders", 15, "number of CBR senders (1-35)")
	fs.IntVar(&o.burst, "burst", 500, "alpha-s* threshold in sensor packets")
	fs.Float64Var(&o.rate, "rate", 0, "per-sender rate in Kbps (0: case default)")
	fs.DurationVar(&o.duration, "duration", 600*time.Second, "simulated duration")
	fs.IntVar(&o.runs, "runs", 3, "seeded repetitions")
	fs.Int64Var(&o.seed, "seed", 1, "base seed")
	fs.Float64Var(&o.loss, "loss", 0, "sensor-channel loss probability")
	fs.BoolVar(&o.shortcut, "shortcut", false, "use shortcut-learning wifi routes (dual model)")
	fs.StringVar(&o.traffic, "traffic", "cbr", "arrival process: cbr|poisson|onoff")
	fs.DurationVar(&o.bound, "bound", 0, "delay bound (0: off); overdue data uses the sensor radio")
	fs.Float64Var(&o.adaptive, "adaptive", 0, "adaptive threshold alpha (0: static threshold)")
	fs.StringVar(&o.topology, "topology", "grid", "node layout: grid|uniform|clustered|linear")
	fs.IntVar(&o.nodes, "nodes", 0, "deployment size (0: the paper's 36)")
	fs.Float64Var(&o.field, "field", 0, "field edge / corridor length in meters (0: the paper's 200)")
	fs.Int64Var(&o.topoSeed, "topo-seed", 0, "placement seed for random topologies (0: fixed default placement)")
	fs.IntVar(&o.clusters, "clusters", 0, "hotspot count for -topology clustered (0: default 4)")
	fs.Float64Var(&o.churn, "churn", 0, "node churn rate in failures per node-hour (0: off)")
	fs.DurationVar(&o.churnDown, "churn-down", 0, "mean outage length under churn (0: default 60s)")
	fs.BoolVar(&o.trace, "trace", false, "run one traced repetition at the base seed and print the per-node energy breakdown")
	fs.DurationVar(&o.sample, "trace-sample", 0, "also record periodic energy samples at this simulated interval (implies -trace)")
	fs.StringVar(&o.traceJSONL, "trace-jsonl", "", "export the traced run as JSON lines (implies -trace)")
	fs.StringVar(&o.traceEventsCSV, "trace-events-csv", "", "export the traced run's events as CSV (implies -trace)")
	fs.StringVar(&o.traceEnergyCSV, "trace-energy-csv", "", "export the traced run's per-node energy breakdown as CSV (implies -trace)")
	o.tel = telemetry.RegisterFlags(fs)
	if err := cli.Parse(fs, args); err != nil {
		return options{}, err
	}
	return o, nil
}

// buildConfig compiles the command line into a simulation config.
func buildConfig(o options) (bulktx.SimConfig, error) {
	var cfg bulktx.SimConfig
	switch o.scenario {
	case "sh":
		cfg = bulktx.NewSimConfig(bulktx.ModelDual, o.senders, o.burst, o.seed)
	case "mh":
		cfg = bulktx.NewMultiHopSimConfig(o.senders, o.burst, o.seed)
	default:
		return cfg, cli.Usagef("unknown case %q (want sh or mh)", o.scenario)
	}
	model, err := sweep.ParseModel(o.model)
	if err != nil {
		return cfg, cli.Usage(err)
	}
	cfg.Model = model
	cfg.Duration = o.duration
	cfg.SensorLoss = o.loss
	cfg.UseShortcutLearner = o.shortcut
	cfg.DelayBound = o.bound
	cfg.AdaptiveThresholdAlpha = o.adaptive
	if cfg.Traffic, err = sweep.ParseTraffic(o.traffic); err != nil {
		return cfg, cli.Usage(err)
	}
	if o.rate != 0 {
		cfg.Rate = bulktx.BitRate(o.rate) * bulktx.Kbps
	}

	// Config.Validate rejects unknown names; the grid is the default
	// layout, which a Config spells "".
	if o.topology != netsim.TopoGrid {
		cfg.Topology = o.topology
	}
	if o.nodes > 0 {
		cfg.Nodes = o.nodes
	}
	if o.field > 0 {
		cfg.Field = bulktx.Meters(o.field)
	}
	cfg.TopologySeed = o.topoSeed
	cfg.Clusters = o.clusters
	cfg.ChurnRate = o.churn
	cfg.ChurnMeanDowntime = o.churnDown
	if err := cfg.Validate(); err != nil {
		// Every Config field came from a flag, so a validation failure
		// is a usage problem (and exits 2 like any other bad value).
		return cfg, cli.Usage(err)
	}
	return cfg, nil
}

func run(args []string) error {
	o, err := parseFlags(flag.NewFlagSet("bcp-sim", flag.ContinueOnError), args)
	if err != nil {
		return err
	}
	if o.tel.HandleVersion(os.Stdout, "bcp-sim") {
		return nil
	}
	cfg, err := buildConfig(o)
	if err != nil {
		return err
	}

	results, err := bulktx.RunSimulations(cfg, o.runs, o.seed)
	if err != nil {
		return err
	}
	goodput, normE, idealE, delay := netsim.Summaries(results)
	last := results[len(results)-1]

	topoLabel := cfg.Topology
	if topoLabel == "" {
		topoLabel = "grid"
	}
	fmt.Printf("model=%s case=%s topology=%s senders=%d burst=%d rate=%v duration=%v runs=%d",
		cfg.Model, o.scenario, topoLabel, o.senders, o.burst, cfg.Rate, o.duration, o.runs)
	if cfg.ChurnRate > 0 {
		fmt.Printf(" churn=%g/node-h", cfg.ChurnRate)
	}
	fmt.Println()
	fmt.Printf("  goodput            %s\n", goodput)
	fmt.Printf("  energy (J/Kbit)    %s\n", normE)
	if cfg.Model == bulktx.ModelSensor {
		fmt.Printf("  ideal   (J/Kbit)   %s\n", idealE)
	}
	fmt.Printf("  mean delay         %v\n", delay.Round(time.Millisecond))
	fmt.Printf("  events/run (last)  %d\n", last.Events)
	if cfg.Model == bulktx.ModelDual {
		a := last.AgentStats
		fmt.Printf("  handshakes=%d bursts=%d frames=%d lost=%d denied=%d reduced=%d timeouts=%d\n",
			a.Handshakes, a.BurstsSent, a.FramesSent, a.FramesLost,
			a.GrantsDenied, a.GrantsReduced, a.ReceiverTimeouts)
	}
	if o.wantTrace() {
		return runTraced(o, cfg)
	}
	return nil
}

// runTraced executes one extra repetition at the base seed with the
// trace probe attached, prints the per-node breakdown and writes the
// requested exports. The summary runs above stay untraced, so their
// results remain comparable with (and cache-compatible with) every
// other invocation.
func runTraced(o options, cfg bulktx.SimConfig) error {
	topts := bulktx.TraceOptionsFor(o.traceJSONL, o.traceEventsCSV, o.sample)
	s, err := cfg.Scenario(bulktx.WithTrace(topts))
	if err != nil {
		return err
	}
	res, err := bulktx.RunScenario(s)
	if err != nil {
		return err
	}
	fmt.Printf("\ntraced run (seed %d):\n", cfg.Seed)
	fmt.Print(bulktx.EnergyBreakdownTable(res.PerNode))
	fmt.Printf("# breakdown sum %v vs run total %v\n",
		bulktx.TotalPerNode(res.PerNode), res.TotalEnergy)
	if res.Trace != nil && len(res.Trace.Samples) > 0 {
		fmt.Printf("# %d energy samples at %v intervals (export with -trace-jsonl)\n",
			len(res.Trace.Samples), o.sample)
	}

	runs := []bulktx.TracedRun{{
		Label:  fmt.Sprintf("%s-seed%d", cfg.Model, cfg.Seed),
		Result: res,
	}}
	return bulktx.ExportTraceFiles(runs, o.traceJSONL, o.traceEventsCSV, o.traceEnergyCSV)
}

// Command bcp-mote runs the paper's Section 4.2 prototype emulation: a
// single dual-radio sender streaming messages to a single receiver, with
// the IEEE 802.11 radio emulated and every radio state change traced.
//
// Usage:
//
//	bcp-mote -threshold 2000            # one run
//	bcp-mote -sweep                     # Figures 11-12 threshold sweep
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"bulktx"
	"bulktx/internal/cli"
	"bulktx/internal/params"
	"bulktx/internal/telemetry"
)

func main() {
	cli.Exit("bcp-mote", run(os.Args[1:]))
}

func run(args []string) error {
	fs := flag.NewFlagSet("bcp-mote", flag.ContinueOnError)
	var (
		threshold = fs.Int("threshold", 2000, "alpha-s* threshold in bytes")
		messages  = fs.Int("messages", 500, "messages per run")
		interval  = fs.Duration("interval", 100*time.Millisecond, "generation interval")
		sweep     = fs.Bool("sweep", false, "sweep thresholds 500-5000 B (Figures 11-12)")
		tracePath = fs.String("trace", "", "write the dual run's trace as JSON lines (the bcp-sim -trace-jsonl format) to this file")
		tel       = telemetry.RegisterFlags(fs)
	)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if tel.HandleVersion(os.Stdout, "bcp-mote") {
		return nil
	}

	if *sweep {
		for _, name := range []string{"fig11", "fig12"} {
			tbl, err := bulktx.RunExperiment(name, bulktx.QuickScale())
			if err != nil {
				return err
			}
			fmt.Print(tbl.Render())
			fmt.Println()
		}
		return nil
	}

	// Every value came from a flag, so an unusable one is a usage error.
	th := bulktx.ByteSize(*threshold)
	switch {
	case th < params.SensorPayload:
		return cli.Usagef("threshold %v below one message (%v)", th, params.SensorPayload)
	case *messages < 1:
		return cli.Usagef("need at least one message, got %d", *messages)
	}
	dual := bulktx.NewPrototypeConfig(bulktx.ModelDual, th, *messages, *interval)
	if err := dual.Validate(); err != nil {
		return cli.Usage(err)
	}
	s, err := dual.Scenario(bulktx.WithTrace(bulktx.TraceOptions{Packets: true, States: true}))
	if err != nil {
		return err
	}
	dualRes, err := bulktx.RunScenario(s)
	if err != nil {
		return err
	}
	sensorRes, err := bulktx.RunSimulation(bulktx.NewPrototypeConfig(bulktx.ModelSensor, th, *messages, *interval))
	if err != nil {
		return err
	}
	fmt.Printf("threshold=%d B messages=%d interval=%v\n", *threshold, *messages, *interval)
	fmt.Printf("  delivered              %d\n", len(dualRes.Delays))
	fmt.Printf("  dual energy/packet     %.1f uJ\n", dualRes.EnergyPerPacket().Microjoules())
	fmt.Printf("  sensor energy/packet   %.1f uJ\n", sensorRes.EnergyPerPacket().Microjoules())
	fmt.Printf("  mean delay/packet      %v\n", dualRes.MeanDelay().Round(time.Millisecond))
	fmt.Printf("  logged events          %d\n", len(dualRes.Trace.Events))
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := bulktx.WriteTraceJSONL(f, []bulktx.TracedRun{{Label: "dual", Result: dualRes}}); err != nil {
			return err
		}
		fmt.Printf("  trace written          %s\n", *tracePath)
	}
	return nil
}

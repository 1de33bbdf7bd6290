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
	"bulktx/internal/telemetry"
)

func main() {
	cli.Exit("bcp-mote", run())
}

func run() error {
	var (
		threshold = flag.Int("threshold", 2000, "alpha-s* threshold in bytes")
		messages  = flag.Int("messages", 500, "messages per run")
		interval  = flag.Duration("interval", 100*time.Millisecond, "generation interval")
		sweep     = flag.Bool("sweep", false, "sweep thresholds 500-5000 B (Figures 11-12)")
		tracePath = flag.String("trace", "", "write the dual run's trace as JSON lines (the bcp-sim -trace-jsonl format) to this file")
		tel       = telemetry.RegisterFlags(flag.CommandLine)
	)
	flag.Parse()
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

	cfg := bulktx.NewPrototypeConfig(bulktx.ByteSize(*threshold))
	cfg.Messages = *messages
	cfg.Interval = *interval
	res, err := bulktx.RunPrototype(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("threshold=%d B messages=%d interval=%v\n", *threshold, *messages, *interval)
	fmt.Printf("  delivered              %d\n", res.Delivered)
	fmt.Printf("  dual energy/packet     %.1f uJ\n", res.DualEnergyPerPacket.Microjoules())
	fmt.Printf("  sensor energy/packet   %.1f uJ\n", res.SensorEnergyPerPacket.Microjoules())
	fmt.Printf("  mean delay/packet      %v\n", res.MeanDelayPerPacket.Round(time.Millisecond))
	fmt.Printf("  logged events          %d\n", len(res.Dual.Trace.Events))
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := bulktx.WriteTraceJSONL(f, []bulktx.TracedRun{{Label: "dual", Result: res.Dual}}); err != nil {
			return err
		}
		fmt.Printf("  trace written          %s\n", *tracePath)
	}
	return nil
}

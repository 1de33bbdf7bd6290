// Multihop: the paper's Section 2.2 linear scenario and Section 3 route
// optimization, end to end.
//
// A source and a destination sit 200 m apart: five hops for a 40 m
// sensor radio, one hop for a 250 m Cabletron 802.11 radio. The example
// first reproduces the analytic conclusion (the 2 Mbps radios become
// worthwhile once forward progress is counted), then simulates the grid
// network in the multi-hop configuration and demonstrates shortcut
// learning: bursts start on sensor-tree next hops and converge to the
// one-hop wifi route.
//
// Run with: go run ./examples/multihop
package main

import (
	"fmt"
	"os"
	"time"

	"bulktx"
	"bulktx/internal/netsim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "multihop:", err)
		os.Exit(1)
	}
}

func run() error {
	micaz, err := bulktx.RadioByName("Micaz")
	if err != nil {
		return err
	}
	cabletron, err := bulktx.RadioByName("Cabletron")
	if err != nil {
		return err
	}
	model, err := bulktx.NewBreakEvenModel(micaz, cabletron)
	if err != nil {
		return err
	}

	fmt.Println("Analysis (Section 2.2): Cabletron over Micaz, 200 m source-destination")
	for fp := 1; fp <= 6; fp++ {
		sStar, err := model.BreakEvenMH(fp)
		if err != nil {
			fmt.Printf("  forward progress %d hop(s): infeasible — Micaz is cheaper per bit\n", fp)
			continue
		}
		fmt.Printf("  forward progress %d hop(s): s* = %v\n", fp, sStar)
	}

	fmt.Println("\nSimulation (Section 4.1 MH case): 36-node grid, Cabletron one hop to sink")
	const senders, burst = 10, 500
	for _, learner := range []bool{false, true} {
		// The paper's multi-hop case: grid and placement defaults, 2 Kbps
		// senders, Micaz plus Cabletron at its 250 m range.
		cfg := bulktx.NewMultiHopSimConfig(senders, burst, 1)
		cfg.SensorProfile, cfg.WifiProfile = micaz, cabletron
		cfg.Duration = 600 * time.Second
		cfg.UseShortcutLearner = learner
		results, err := bulktx.RunSimulations(cfg, 3, 1)
		if err != nil {
			return err
		}
		goodput, energyPerKbit, _, delay := netsim.Summaries(results)
		label := "wifi tree (evaluation default)"
		if learner {
			label = "shortcut learning from sensor routes"
		}
		fmt.Printf("  %-38s goodput=%.3f energy=%.5f J/Kbit delay=%v\n",
			label, goodput.Mean, energyPerKbit.Mean, delay.Round(time.Second))
	}

	fmt.Println("\nWith learning, early bursts relay store-and-forward over short hops;" +
		"\nafter each node's first burst it adopts the farthest reachable forwarder" +
		"\n(Section 3), converging to the one-hop route the wifi tree starts with.")
	return nil
}

// Quickstart: the paper's core result in thirty lines.
//
// It asks the break-even analysis when a Lucent 11 Mbps radio starts
// beating a Micaz sensor radio, then runs the dual-radio prototype at a
// threshold above the break-even point and shows the measured energy
// savings per packet.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"os"
	"time"

	"bulktx"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	micaz, err := bulktx.RadioByName("Micaz")
	if err != nil {
		return err
	}
	lucent, err := bulktx.RadioByName("Lucent (11Mbps)")
	if err != nil {
		return err
	}

	// Section 2: where is the break-even point?
	model, err := bulktx.NewBreakEvenModel(micaz, lucent)
	if err != nil {
		return err
	}
	sStar, err := model.BreakEven()
	if err != nil {
		return err
	}
	fmt.Printf("Break-even size s* (%s over %s): %v\n", lucent.Name, micaz.Name, sStar)
	fmt.Printf("Analytic savings at 4 KB: %.0f%%\n\n", model.Savings(4*1024)*100)

	// Section 4.2: measure it through the full protocol stack. The
	// sensor-radio baseline sends every message at once, so one run
	// serves every threshold.
	const messages, interval = 500, 100 * time.Millisecond
	baseline, err := bulktx.RunSimulation(bulktx.NewPrototypeConfig(bulktx.ModelSensor, 0, messages, interval))
	if err != nil {
		return err
	}
	sensor := baseline.EnergyPerPacket()
	for _, threshold := range []bulktx.ByteSize{512, 4096} {
		res, err := bulktx.RunSimulation(bulktx.NewPrototypeConfig(bulktx.ModelDual, threshold, messages, interval))
		if err != nil {
			return err
		}
		dual := res.EnergyPerPacket()
		verdict := "wastes energy (below s*)"
		if dual < sensor {
			verdict = "saves energy"
		}
		fmt.Printf("Buffering %4d B before waking the 802.11 radio: "+
			"%6.1f uJ/packet vs %5.1f uJ/packet on the sensor radio -> %s\n",
			threshold, dual.Microjoules(), sensor.Microjoules(), verdict)
	}
	return nil
}

// Package mote reproduces the paper's prototype experiments (Section
// 4.2): a Tmote-Sky-class dual-radio node pair where the low-power radio
// is a real CC2420-class stack and the IEEE 802.11 radio is *emulated*
// behind a second MAC interface, exactly as the authors did ("we chose to
// emulate the high-power radio... a second MAC interface, which is
// basically a wrapper around the standard TinyOS MAC interface").
//
// A single sender streams a fixed number of messages to a single
// receiver 10 m away and then flushes whatever it still buffers. Both
// runs are netsim scenarios on a 2-node linear layout with a CBR
// workload capped at the message count: the dual model for BCP and the
// sensor model for the send-immediately baseline. Energy comes from the
// radios' meters. The dual run is traced, and netsim's replay test
// checks that its radio state transitions reproduce those meters — the
// event-log accounting the paper's methodology rests on. Figures 11 and
// 12 come from sweeping the alpha-s* threshold.
package mote

import (
	"fmt"
	"math"
	"time"

	"bulktx/internal/energy"
	"bulktx/internal/netsim"
	"bulktx/internal/params"
	"bulktx/internal/trace"
	"bulktx/internal/units"
)

// Config parameterizes one prototype run. Every message carries the
// sensor payload (params.SensorPayload, 32 B).
type Config struct {
	// Threshold is the alpha-s* buffering threshold in bytes (the paper
	// sweeps 500-5000 B; Tmote memory capped it at ~4 KB). BCP buffers
	// whole messages, so it acts as the next multiple of the payload.
	Threshold units.ByteSize
	// Messages is the number of application messages per run (paper: 500).
	Messages int
	// Interval is the application generation period.
	Interval time.Duration
	// SensorProfile is the low-power radio (CC2420-class: Micaz profile).
	SensorProfile energy.Profile
	// WifiProfile is the emulated high-power radio.
	WifiProfile energy.Profile
	// Seed drives the run's randomness.
	Seed int64
}

// DefaultConfig returns the paper's prototype setup for a threshold.
func DefaultConfig(threshold units.ByteSize) Config {
	return Config{
		Threshold:     threshold,
		Messages:      500,
		Interval:      100 * time.Millisecond,
		SensorProfile: energy.Micaz(),
		WifiProfile:   energy.Lucent11(),
		Seed:          1,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Threshold < params.SensorPayload:
		return fmt.Errorf("mote: threshold %v below one message (%v)", c.Threshold, params.SensorPayload)
	case c.Messages < 1:
		return fmt.Errorf("mote: need at least one message")
	case c.Interval <= 0:
		return fmt.Errorf("mote: non-positive interval")
	}
	return nil
}

// Result carries one prototype run's outcomes.
type Result struct {
	// Delivered counts messages received.
	Delivered int
	// DualEnergyPerPacket is the dual-radio energy per delivered packet
	// (sensor control + emulated 802.11, both endpoints).
	DualEnergyPerPacket units.Energy
	// SensorEnergyPerPacket is the baseline: the same messages sent
	// immediately over the sensor radio, per packet.
	SensorEnergyPerPacket units.Energy
	// MeanDelayPerPacket is the average generation-to-delivery latency.
	MeanDelayPerPacket time.Duration
	// Dual is the traced dual-radio run: per-node per-radio ledgers in
	// Dual.PerNode, radio state and packet events in Dual.Trace.
	Dual netsim.Result
}

// Run executes one prototype experiment.
func Run(cfg Config) (Result, error) {
	dual, err := run(cfg, netsim.ModelDual, netsim.WithTrace(trace.Options{Packets: true, States: true}))
	if err != nil {
		return Result{}, err
	}
	sensor, err := run(cfg, netsim.ModelSensor)
	if err != nil {
		return Result{}, err
	}
	if len(sensor.Delays) == 0 {
		return Result{}, fmt.Errorf("mote: sensor baseline delivered nothing")
	}
	res := Result{
		Delivered:             len(dual.Delays),
		SensorEnergyPerPacket: sensor.TotalEnergy / units.Energy(float64(len(sensor.Delays))),
		MeanDelayPerPacket:    dual.MeanDelay(),
		Dual:                  dual,
	}
	if res.Delivered > 0 {
		res.DualEnergyPerPacket = dual.TotalEnergy / units.Energy(float64(res.Delivered))
	}
	return res, nil
}

// run simulates the prototype pair under one model.
func run(cfg Config, model netsim.Model, opts ...netsim.Option) (netsim.Result, error) {
	s, err := Scenario(cfg, model, opts...)
	if err != nil {
		return netsim.Result{}, err
	}
	return netsim.RunScenario(s)
}

// Scenario builds the prototype pair as a netsim scenario of the given
// model, with the parts in opts applied last: node 0 sends cfg.Messages
// messages, one per interval, to the sink at node 1 and then flushes,
// and the run lasts ten minutes past the flush.
func Scenario(cfg Config, model netsim.Model, opts ...netsim.Option) (*netsim.Scenario, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// The workload takes a bit rate. A plain division can put its period
	// a nanosecond short of Interval (110 ms, for one), so step the rate
	// down until the period is exact.
	rate := units.BitRate(float64(params.SensorPayload.Bits()) / cfg.Interval.Seconds())
	for rate.TimeFor(params.SensorPayload) < cfg.Interval {
		rate = units.BitRate(math.Nextafter(float64(rate), 0))
	}
	sc := netsim.DefaultConfig(model, 1,
		int((cfg.Threshold+params.SensorPayload-1)/params.SensorPayload), cfg.Seed)
	sc.Topology, sc.Nodes, sc.Field = netsim.TopoLinear, 2, 10
	sc.Sink = 1
	sc.Rate = rate
	sc.Duration = time.Duration(cfg.Messages+1)*cfg.Interval + 10*time.Minute
	sc.SensorProfile, sc.WifiProfile = cfg.SensorProfile, cfg.WifiProfile
	sc.WifiRange = 10
	return sc.Scenario(append([]netsim.Option{
		netsim.WithWorkload(netsim.Workload{Traffic: netsim.TrafficCBR, Rate: rate, Messages: cfg.Messages}),
	}, opts...)...)
}

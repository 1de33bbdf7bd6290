// Package bulktx is a faithful, full-system reproduction of
//
//	"Improving Energy Conservation Using Bulk Transmission over
//	 High-Power Radios in Sensor Networks",
//	C. Sengul, M. Bakht, A. Harris III, T. Abdelzaher, R. Kravets,
//	ICDCS 2008.
//
// The paper shows that adding a high-power, high-rate IEEE 802.11 radio
// to a low-power sensor platform saves energy once enough data is
// accumulated and shipped in bulk, and contributes the Bulk
// Communication Protocol (BCP) that manages the buffering, the wake-up
// handshake over the low-power radio, and the burst transfer over the
// high-power radio.
//
// This package is the public facade over the full implementation:
//
//   - the break-even analysis of Section 2 (energy models, s*, burst
//     savings) — see BreakEvenModel;
//   - the BCP protocol of Section 3 with its dual-radio simulation stack
//     (discrete-event engine, PHY channels, CSMA and DCF MACs, routing,
//     energy metering) — see RunSimulation;
//   - the prototype emulation of Section 4.2, one sender streaming a
//     fixed number of messages to one receiver, under BCP and under the
//     sensor-radio baseline, with energy from the radios' meters — see
//     NewPrototypeConfig;
//   - runners that regenerate every table and figure of the paper — see
//     RunExperiment;
//   - a parallel sweep-orchestration engine for grids of seeded runs
//     (the shape of every evaluation in the paper) — see RunSweep;
//   - one run description, SimConfig, covering the paper's evaluation
//     shape and its variants (topologies, traffic, loss, churn) — see
//     SimConfig.Scenario.
//
// # Scenarios
//
// A SimConfig (NewSimConfig, NewMultiHopSimConfig) is the whole
// description of a run: model, radios, sender count, burst threshold,
// rate and arrival process, duration, message cap, the protocol
// extensions, and the deployment — a Topology family ("grid",
// "uniform", "clustered" with Clusters hotspots, "linear") over Nodes
// and Field, placed by TopologySeed; a Sink (negative selects the node
// nearest the centroid); flat SensorLoss and WifiLoss; and random churn
// (ChurnRate failures per node per hour, ChurnMeanDowntime outages).
// It is the wire format of sweeps, JSON specs and caches, and
// SimConfig.Validate is its one validator. SimConfig.Scenario
// validates it and resolves the layout, sink, senders and churn
// schedule; past Validate, its only failure is a layout that is not
// connected at the radio range the model routes over. RunScenario
// executes one run; RunScenarioMany fans seeded repetitions over the
// CPU, and its rep r of cfg.Scenario() equals RunSimulation(cfg) at
// seed base+r.
//
//	cfg := bulktx.NewSimConfig(bulktx.ModelDual, 6, 100, 1)
//	cfg.Topology, cfg.Nodes, cfg.Field = "linear", 24, 180
//	cfg.Sink = 0
//	cfg.ChurnRate, cfg.ChurnMeanDowntime = 2, 30*time.Second
//	s, _ := cfg.Scenario()
//	res, _ := bulktx.RunScenario(s)
//
// # Sweeps
//
// A SweepSpec declares axes (model, senders, burst threshold, traffic,
// seeds) over a SimConfig template; the sweep engine compiles it into a
// flat job list and executes it on a worker pool sized to the machine;
// concurrent sweeps on one pool share its simulation budget.
// Each run derives all of its randomness from its own seed, so parallel
// results are byte-identical to serial execution. An optional
// SweepCache memoizes results keyed by a hash of the full run
// configuration — in memory, and optionally on disk (NewSweepDiskCache)
// so overlapping sweeps across processes only simulate new points.
// Outcomes aggregate per grid point (mean / 95% CI over seeds) and
// export as metrics tables, JSON or CSV.
//
// The experiment runners behind RunExperiment execute on a shared
// instance of this engine (see ConfigureExperiments), so regenerating
// several figures reuses every overlapping grid cell. The cmd/bcp-sweep
// executable exposes the engine directly for ad-hoc grids, and
// NewSimService wraps it in a long-lived HTTP job API (cmd/bcp-serve):
// content-keyed submissions that dedupe onto an existing job, cached
// cells, SSE progress streams, artifact exports, bounded-queue
// backpressure and graceful drain — see docs/API.md. Its jobs run side
// by side under the pool's simulation budget, and its result cache keeps
// at most 64 MiB in memory, evicting least recently used results.
//
// # Tracing
//
// WithTrace attaches a per-run observability probe to any scenario:
// per-node per-radio per-state energy breakdowns (SimResult.PerNode,
// rendered by EnergyBreakdownTable, summing back to TotalEnergy),
// packet provenance with per-hop latency, radio state transitions and
// periodic energy samples (SimResult.Trace), selected by TraceOptions.
// Untraced runs pay nothing: every probe site is a nil check, and
// fixed-seed results are byte-identical with tracing off. Traced runs
// export as JSONL and CSV (WriteTraceJSONL, WriteNodeEnergyCSV,
// WriteTraceEvents); cmd/bcp-report renders the registry plus traced
// breakdowns into a byte-stable markdown reproduction report.
//
// # Event core
//
// Every simulated run executes on the internal/sim discrete-event
// engine, whose hot path is allocation-free: events live in a
// value-typed 4-ary heap ordered by (time, sequence), callbacks in a
// free-list-backed handle table, and cancellation is lazy — Cancel
// retires the handle in O(1) and the heap entry is discarded when it
// surfaces, with an O(n) compaction once cancelled debris dominates.
// Determinism is unaffected: executed events follow the exact
// (time, sequence) order, so a fixed seed produces a byte-identical
// trajectory; only cancelled (never-executed) bookkeeping changed.
//
// The radio layer exploits static topology the same way: each channel
// precomputes at construction a dense per-node table of pre-sorted
// in-range receivers, so a transmission walks one list instead of
// scanning, filtering and sorting the node set. Layouts are immutable;
// if node mobility is ever added, the neighbor index must be rebuilt on
// any position change. cmd/bcp-bench measures the core benchmarks and
// writes the JSON baselines committed as BENCH_PR*.json.
//
// The executables under cmd/ and the runnable scenarios under examples/
// are thin clients of this API.
package bulktx

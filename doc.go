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
//   - the prototype emulation of Section 4.2 — see RunPrototype;
//   - runners that regenerate every table and figure of the paper — see
//     RunExperiment;
//   - a parallel sweep-orchestration engine for grids of seeded runs
//     (the shape of every evaluation in the paper) — see RunSweep;
//   - a composable Scenario API generalizing the paper's single
//     evaluation shape to arbitrary deployments — see NewScenario.
//
// # Scenarios
//
// NewScenario assembles a simulation from pluggable parts under
// functional options, validating everything at build time: a Topology
// (GridTopology, UniformTopology, ClusteredTopology, LinearTopology,
// ExplicitTopology), sink and sender placement policies
// (SinkNearCenter/SinkAt, StableShuffleSenders/ExplicitSenders/
// FarthestSenders), a Workload (CBR, Poisson or on/off arrivals with
// homogeneous or per-sender rates), a LinkModel (flat or
// distance-dependent loss) and a Churn model (scheduled or random node
// failures and recoveries). RunScenario executes one run;
// RunScenarioMany fans seeded repetitions over the CPU.
//
//	s, _ := bulktx.NewScenario(
//		bulktx.WithTopology(bulktx.LinearTopology(24, 180)),
//		bulktx.WithSink(bulktx.SinkAt(0)),
//		bulktx.WithSenderPolicy(bulktx.FarthestSenders()),
//		bulktx.WithSenders(6),
//		bulktx.WithChurn(bulktx.RandomChurn(2, 30*time.Second, 7)),
//	)
//	res, _ := bulktx.RunScenario(s)
//
// The flat SimConfig remains as the serializable compatibility layer
// behind sweeps and JSON specs; it compiles onto a Scenario
// (SimConfig.Scenario) and fixed-seed results through either surface
// are byte-identical. Treat direct SimConfig field mutation as
// deprecated outside serialization — the builder makes every default
// explicit and rejects invalid compositions before any event runs.
//
// # Sweeps
//
// A SweepSpec declares axes (model, senders, burst threshold, traffic,
// seeds) over a SimConfig template; the sweep engine compiles it into a
// flat job list and executes it on a worker pool sized to the machine.
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
// backpressure and graceful drain — see docs/API.md.
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

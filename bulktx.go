package bulktx

import (
	"time"

	"bulktx/internal/analysis"
	"bulktx/internal/energy"
	"bulktx/internal/experiments"
	"bulktx/internal/metrics"
	"bulktx/internal/netsim"
	"bulktx/internal/report"
	"bulktx/internal/service"
	"bulktx/internal/sweep"
	"bulktx/internal/trace"
	"bulktx/internal/units"
)

// Re-exported core types. The implementation lives under internal/; the
// aliases below are the supported public surface.
type (
	// RadioProfile is one row of the paper's Table 1: a radio's rate,
	// power draws, wake-up energy and range.
	RadioProfile = energy.Profile

	// BreakEvenModel evaluates the Section 2 energy equations for one
	// low-power/high-power radio pair.
	BreakEvenModel = analysis.Model

	// ModelOption configures a BreakEvenModel.
	ModelOption = analysis.Option

	// SimConfig describes one network simulation run (Section 4.1).
	SimConfig = netsim.Config

	// SimResult carries a simulation run's metrics and counters.
	SimResult = netsim.Result

	// SimModel selects the evaluation model (sensor / 802.11 / dual).
	SimModel = netsim.Model

	// ResultTable is a printable reproduction of one paper artifact.
	ResultTable = metrics.Table

	// ExperimentScale trades fidelity for wall-clock time when
	// regenerating the simulation figures.
	ExperimentScale = experiments.Scale

	// SweepSpec declares a grid of seeded simulation runs over a base
	// SimConfig template (axes over model, senders, bursts, traffic).
	SweepSpec = sweep.Spec

	// SweepPool executes sweep jobs on a fixed-size worker pool with
	// optional result caching.
	SweepPool = sweep.Pool

	// SweepOutcome is an executed sweep: per-job results plus grouped
	// per-cell summaries and JSON/CSV/table exporters.
	SweepOutcome = sweep.Outcome

	// SweepCache memoizes simulation results by a content key over the
	// full run configuration.
	SweepCache = sweep.Cache

	// SweepJobUpdate is one resolved job's progress record, delivered
	// by SweepPool.RunJobsProgress as cells complete.
	SweepJobUpdate = sweep.JobUpdate

	// ConfigFieldError is a validation failure annotated with the
	// offending configuration or spec field name (extract with
	// errors.As); the HTTP service turns these into 400 bodies.
	ConfigFieldError = netsim.FieldError

	// SimService is the HTTP simulation service behind cmd/bcp-serve:
	// content-keyed job submission over the shared sweep pool and
	// cache, SSE progress streams, artifact exports, backpressure and
	// graceful drain. It implements http.Handler; see docs/API.md.
	SimService = service.Server

	// SimServiceOptions configures a SimService (pool size, cache,
	// queue and cell limits).
	SimServiceOptions = service.Options

	// SimServiceJobStatus is the serialized status of one service job.
	SimServiceJobStatus = service.JobStatus

	// SimServiceRunRequest is the body of the service's POST /v1/runs.
	SimServiceRunRequest = service.RunRequest

	// Scenario is a validated SimConfig with its layout, sink, senders
	// and churn schedule resolved, built by SimConfig.Scenario.
	Scenario = netsim.Scenario

	// ScenarioOption adjusts how SimConfig.Scenario builds a Scenario;
	// WithTrace is the only one.
	ScenarioOption = netsim.Option

	// TraceOptions selects what a traced run records (per-node energy
	// breakdowns always; packet provenance, state transitions and
	// periodic samples on demand).
	TraceOptions = trace.Options

	// TraceRecording is the event/sample stream of one traced run
	// (SimResult.Trace).
	TraceRecording = trace.Recording

	// TraceEvent is one trace record: a packet-provenance or radio
	// state-transition event.
	TraceEvent = trace.Event

	// NodeEnergy is one node's per-radio per-state energy breakdown
	// (SimResult.PerNode).
	NodeEnergy = metrics.NodeEnergy

	// TracedRun pairs an export label with a traced run's result for
	// the trace exporters.
	TracedRun = sweep.TracedRun

	// Energy is an amount of energy in joules.
	Energy = units.Energy

	// Meters is a distance in meters.
	Meters = units.Meters

	// ByteSize is a quantity of data in bytes.
	ByteSize = units.ByteSize

	// BitRate is a data rate in bits per second.
	BitRate = units.BitRate
)

// Common rate units.
const (
	Kbps = units.Kbps
	Mbps = units.Mbps
)

// Evaluation models.
const (
	ModelSensor = netsim.ModelSensor
	ModelWifi   = netsim.ModelWifi
	ModelDual   = netsim.ModelDual
)

// Traffic is the sender arrival process.
type Traffic = netsim.Traffic

// Traffic models: the paper's CBR plus Poisson and on/off burst sources.
const (
	TrafficCBR     = netsim.TrafficCBR
	TrafficPoisson = netsim.TrafficPoisson
	TrafficOnOff   = netsim.TrafficOnOff
)

// The Scenario surface, re-exported from the simulation core. A
// SimConfig is the whole description of a run; SimConfig.Scenario
// validates it and resolves its layout, sink, senders and churn:
//
//	cfg := bulktx.NewSimConfig(bulktx.ModelDual, 10, 100, 1)
//	cfg.Topology, cfg.Clusters = "clustered", 4
//	cfg.Traffic = bulktx.TrafficPoisson
//	cfg.ChurnRate, cfg.ChurnMeanDowntime = 2, 30*time.Second
//	s, err := cfg.Scenario()
//	res, err := bulktx.RunScenario(s)
var (
	// RunScenario executes one simulation of a built Scenario.
	RunScenario = netsim.RunScenario
	// RunScenarioMany executes seeded repetitions of a Scenario
	// concurrently, in seed order.
	RunScenarioMany = netsim.RunScenarioMany

	// WithTrace enables per-run observability (see TraceOptions);
	// untraced scenarios pay nothing.
	WithTrace = netsim.WithTrace

	// Trace exporters: JSONL and CSV serializations of traced runs,
	// plus the shared write-to-files helper behind the CLI flags.
	WriteTraceJSONL    = sweep.WriteTraceJSONL
	WriteNodeEnergyCSV = sweep.WriteNodeEnergyCSV
	WriteTraceEvents   = sweep.WriteTraceEventsCSV
	ExportTraceFiles   = sweep.ExportTraceFiles
	TraceOptionsFor    = sweep.TraceOptionsFor

	// EnergyBreakdownTable renders a per-node breakdown as a
	// fixed-width table; TotalPerNode sums one back to a run total.
	EnergyBreakdownTable = metrics.EnergyBreakdownTable
	TotalPerNode         = metrics.TotalPerNode
)

// Table1 returns the paper's Table 1 radio profiles.
func Table1() []RadioProfile { return energy.Table1() }

// RadioByName retrieves a Table 1 profile ("Micaz", "Lucent (11Mbps)",
// "Cabletron", ...).
func RadioByName(name string) (RadioProfile, error) {
	return energy.ProfileByName(name)
}

// NewBreakEvenModel builds a Section 2 analysis model over a low-power
// and a high-power radio profile.
func NewBreakEvenModel(low, high RadioProfile, opts ...ModelOption) (*BreakEvenModel, error) {
	return analysis.NewModel(low, high, opts...)
}

// WithIdleTime charges the high-power radios for idling this long per
// transfer (Figure 2 sweeps it).
func WithIdleTime(d time.Duration) ModelOption { return analysis.WithIdleTime(d) }

// WithOverhearing charges fixed per-transfer overhearing energies.
func WithOverhearing(low, high Energy) ModelOption {
	return analysis.WithOverhearing(low, high)
}

// NewSimConfig returns the paper's single-hop scenario (Lucent 11 Mbps,
// 36-node grid) for a model, sender count, burst size and seed.
func NewSimConfig(model SimModel, senders, burstPackets int, seed int64) SimConfig {
	return netsim.DefaultConfig(model, senders, burstPackets, seed)
}

// NewMultiHopSimConfig returns the paper's multi-hop scenario (Cabletron
// reaching the sink in one hop).
func NewMultiHopSimConfig(senders, burstPackets int, seed int64) SimConfig {
	return netsim.MultiHopConfig(senders, burstPackets, seed)
}

// RunSimulation executes one network simulation run.
func RunSimulation(cfg SimConfig) (SimResult, error) { return netsim.Run(cfg) }

// RunSimulations executes n seeded repetitions of cfg (seeds
// baseSeed..baseSeed+runs-1).
func RunSimulations(cfg SimConfig, runs int, baseSeed int64) ([]SimResult, error) {
	s, err := cfg.Scenario()
	if err != nil {
		return nil, err
	}
	return netsim.RunScenarioMany(s, runs, baseSeed)
}

// NewPrototypeConfig returns the paper's Section 4.2 prototype as a
// SimConfig: one sender streaming messages 32 B messages, one per
// interval, to a receiver 10 m away, then flushing. The dual model
// buffers an alpha-s* threshold in bytes before each burst; the sensor
// model is the send-immediately baseline. Run it with RunSimulation
// and compare SimResult.EnergyPerPacket across the two models.
func NewPrototypeConfig(model SimModel, threshold ByteSize, messages int, interval time.Duration) SimConfig {
	return netsim.PrototypeConfig(model, threshold, messages, interval)
}

// NewSimService builds and starts the HTTP simulation service (the
// zero-value options select all cores, an in-memory cache and the
// default limits). Serve it with http.Server{Handler: svc} and drain
// it with svc.Close(ctx) before exit. Construction fails only when a
// configured StateDir cannot be opened or its job journal is
// unreadable.
func NewSimService(o SimServiceOptions) (*SimService, error) { return service.New(o) }

// SweepReportMarkdown renders an executed sweep outcome as a
// byte-stable markdown document (the service's report.md artifact).
func SweepReportMarkdown(title string, o *SweepOutcome) []byte {
	return report.SweepMarkdown(title, o.Summary())
}

// RunSweep executes a sweep spec on a default pool (all cores,
// in-memory cache) and returns the grouped outcome. Construct a
// SweepPool directly to control concurrency, progress reporting or
// disk caching.
func RunSweep(spec SweepSpec) (*SweepOutcome, error) {
	pool := &sweep.Pool{Cache: sweep.NewCache()}
	return pool.RunSpec(spec)
}

// NewSweepCache returns an in-memory (process-lifetime) sweep result
// cache.
func NewSweepCache() *SweepCache { return sweep.NewCache() }

// NewSweepDiskCache returns a sweep result cache persisted under dir
// in addition to memory; deleting the directory is always safe.
func NewSweepDiskCache(dir string) (*SweepCache, error) { return sweep.NewDiskCache(dir) }

// ConfigureExperiments replaces the worker-pool size (0 = all cores)
// and result cache (nil = fresh in-memory) behind RunExperiment's
// simulation figures and ablations.
func ConfigureExperiments(workers int, cache *SweepCache) {
	experiments.ConfigureEngine(workers, cache)
}

// Experiments lists the regenerable paper artifacts and ablations.
func Experiments() []string { return experiments.Names() }

// RunExperiment regenerates one paper artifact by name ("table1",
// "fig1" ... "fig12", "ablation-*").
func RunExperiment(name string, scale ExperimentScale) (ResultTable, error) {
	return experiments.Run(name, scale)
}

// QuickScale regenerates the simulation figures in seconds of wall-clock
// while preserving every qualitative shape.
func QuickScale() ExperimentScale { return experiments.QuickScale() }

// FullScale regenerates the simulation figures at the paper's exact
// scenario (5000 s simulated, 20 runs per point).
func FullScale() ExperimentScale { return experiments.FullScale() }

package netsim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bulktx/internal/core"
	"bulktx/internal/energy"
	"bulktx/internal/mac"
	"bulktx/internal/metrics"
	"bulktx/internal/params"
	"bulktx/internal/radio"
	"bulktx/internal/routing"
	"bulktx/internal/sim"
	"bulktx/internal/trace"
	"bulktx/internal/units"
	"bulktx/internal/workload"
)

// forwarder is the send-immediately data plane of the two baseline
// models: packets hop along the routing tree with no buffering beyond
// the MAC queue.
type forwarder struct {
	id        int
	m         *mac.MAC
	tree      *routing.Tree
	header    units.ByteSize
	onDeliver func(core.Packet)
	// probe, when non-nil, records per-hop packet provenance. The nil
	// check per forwarded packet is the whole cost of disabled tracing
	// on this path.
	probe *trace.Collector
}

func newForwarder(
	id int,
	m *mac.MAC,
	tree *routing.Tree,
	header units.ByteSize,
	onDeliver func(core.Packet),
	probe *trace.Collector,
) *forwarder {
	f := &forwarder{id: id, m: m, tree: tree, header: header, onDeliver: onDeliver, probe: probe}
	m.SetOnReceive(f.receive)
	return f
}

// submit routes one packet: deliver locally or send to the next hop.
func (f *forwarder) submit(p core.Packet) {
	if p.Dst == f.id {
		if f.onDeliver != nil {
			f.onDeliver(p)
		}
		return
	}
	nh, ok := f.tree.NextHop(f.id)
	if !ok {
		// Disconnected (a churn-failed relay, or a layout hole): the
		// packet is lost here, and traced provenance must say so or the
		// packet would vanish from the stream without a terminal event.
		if f.probe != nil {
			f.probe.PacketDropped(f.id, p.Src, p.Dst, p.Seq, "no-route")
		}
		return
	}
	frame := radio.Frame{
		Kind:    radio.KindData,
		Dst:     radio.NodeID(nh),
		Size:    p.Size + f.header,
		Payload: p,
	}
	// Queue overflow is the model's loss mechanism under contention; the
	// MAC counts the rejection and reports it through the error alone.
	if err := f.m.Send(frame); err != nil && f.probe != nil {
		f.probe.PacketDropped(f.id, p.Src, p.Dst, p.Seq, "queue-full")
	}
}

func (f *forwarder) receive(frame radio.Frame) {
	p, ok := frame.Payload.(core.Packet)
	if !ok {
		return
	}
	if f.probe != nil && p.Dst != f.id {
		f.probe.PacketForwarded(f.id, p.Src, p.Dst, p.Seq)
	}
	f.submit(p)
}

// Run executes one simulation described by the flat compatibility
// Config and returns its outcomes. New code should prefer NewScenario +
// RunScenario.
func Run(cfg Config) (Result, error) {
	s, err := cfg.Scenario()
	if err != nil {
		return Result{}, err
	}
	return runInstrumented(s, nil)
}

// RunScenario executes one simulation of a built Scenario.
func RunScenario(s *Scenario) (Result, error) {
	return runInstrumented(s, nil)
}

// runInstrumented executes a scenario with an optional per-node wifi
// meter probe.
func runInstrumented(s *Scenario, probe func(i int, wifi *energy.Meter, on bool)) (Result, error) {
	sched := sim.NewScheduler(s.seed)
	recorder := workload.NewRecorder(sched)
	var tr *trace.Collector
	if s.traceOn {
		tr = trace.NewCollector(s.traceOpts, sched.Now)
	}
	var (
		res     Result
		emit    []func(core.Packet) // per-node packet entry point
		sensorM []*mac.MAC
		wifiM   []*mac.MAC
		agents  []*core.Agent
		err     error
	)

	switch s.model {
	case ModelSensor:
		sensorM, emit, err = buildSensorModel(s, sched, recorder, tr)
	case ModelWifi:
		wifiM, emit, err = buildWifiModel(s, sched, recorder, tr)
	case ModelDual:
		sensorM, wifiM, agents, emit, err = buildDualModel(s, sched, recorder, tr)
	default:
		err = fmt.Errorf("netsim: unhandled model %v", s.model)
	}
	if err != nil {
		return Result{}, err
	}

	// Workload: senders toward the sink. Dual-model CBR senders stagger
	// their start across one burst-accumulation interval so threshold
	// crossings do not synchronize into an artificial burst storm (the
	// random processes desynchronize naturally).
	var generators []source
	for i, sender := range s.senderIDs {
		rate := s.workload.RateFor(i)
		var startWindow time.Duration
		if s.model == ModelDual {
			period := time.Duration(float64(params.SensorPayload.Bits()) /
				rate.BitsPerSecond() * float64(time.Second))
			startWindow = period * time.Duration(s.burstPackets)
		}
		emitFn := emit[sender]
		if tr != nil {
			node, inner := sender, emitFn
			emitFn = func(p core.Packet) {
				tr.PacketGenerated(node, p.Src, p.Dst, p.Seq)
				inner(p)
			}
		}
		g, err := newSource(s, sched, rate, sender, s.sinkID, startWindow, emitFn)
		if err != nil {
			return Result{}, err
		}
		generators = append(generators, g)
	}

	// Periodic energy sampling rides the ordinary event queue; it is
	// scheduled at all only when the trace options ask for it, so the
	// untraced queue carries no extra events.
	if tr != nil && tr.SampleInterval() > 0 {
		interval := tr.SampleInterval()
		var tick func()
		tick = func() {
			tr.TakeSample()
			sched.After(interval, tick)
		}
		sched.After(interval, tick)
	}

	// Churn: the schedule was resolved and validated at build time; each
	// event toggles every radio of its node.
	for _, ev := range s.churnEvents {
		ev := ev
		if _, err := sched.Schedule(sim.Time(ev.At), func() {
			if ev.Node < len(sensorM) && sensorM != nil {
				sensorM[ev.Node].Transceiver().SetFailed(ev.Down)
			}
			if ev.Node < len(wifiM) && wifiM != nil {
				wifiM[ev.Node].Transceiver().SetFailed(ev.Down)
			}
		}); err != nil {
			return Result{}, err
		}
	}

	sched.RunUntil(s.duration)
	for _, g := range generators {
		g.Stop()
	}

	// Collect metrics.
	for _, g := range generators {
		_, bits := g.Generated()
		res.GeneratedBits += bits
	}
	res.DeliveredBits = recorder.DeliveredBits()
	res.Delays = recorder.Delays()
	res.Events = sched.Processed

	var overhear units.Energy
	for _, m := range sensorM {
		by := m.Transceiver().Meter().ByState()
		// Sum in canonical state order: float addition is not
		// associative, and map-order iteration would make TotalEnergy
		// vary in its last bits from run to run.
		for _, state := range energy.States() {
			e, ok := by[state]
			if !ok {
				continue
			}
			if state == energy.Overhear {
				overhear += e
			}
			res.TotalEnergy += e
		}
		addStats := m.Transceiver().Channel().Stats()
		res.SensorStats = addStats
	}
	for _, m := range wifiM {
		res.TotalEnergy += m.Transceiver().Meter().Total()
		res.WifiStats = m.Transceiver().Channel().Stats()
	}
	res.IdealEnergy = res.TotalEnergy - overhear
	for _, a := range agents {
		res.AgentStats = addAgentStats(res.AgentStats, a.Stats())
	}
	if tr != nil {
		rec := tr.Finish()
		res.PerNode = rec.PerNode
		res.Trace = rec
	}
	if probe != nil {
		for i, m := range wifiM {
			x := m.Transceiver()
			probe(i, x.Meter(), x.On() || x.Waking())
		}
	}
	return res, nil
}

// wireTraceRadio registers a radio's meter with the collector and
// forwards its effective state transitions as trace events. A nil
// collector leaves the meter's transition hook nil — the zero-cost
// fast path.
func wireTraceRadio(tr *trace.Collector, node int, name string, x *radio.Transceiver) {
	if tr == nil {
		return
	}
	tr.RegisterMeter(node, name, x.Meter())
	x.Meter().SetOnTransition(func(from, to energy.State) {
		tr.StateChange(node, name, from, to)
	})
}

// tracedDeliver wraps a sink delivery callback with provenance
// recording (identity on untraced runs or non-sink nodes).
func tracedDeliver(tr *trace.Collector, node int, deliver func(core.Packet)) func(core.Packet) {
	if tr == nil || deliver == nil {
		return deliver
	}
	return func(p core.Packet) {
		tr.PacketDelivered(node, p.Src, p.Dst, p.Seq)
		deliver(p)
	}
}

// wireTraceMACDrops records data packets a MAC accepted and later
// abandoned (retry limit, radio off). Synchronous queue-full
// rejections are not among them — Send reports those through its
// error, and the rejected frame's holder records the drop — and
// control/burst frames carry non-Packet payloads and are skipped (the
// agent reports those losses through its own packet observer), so each
// lost packet traces exactly once.
func wireTraceMACDrops(tr *trace.Collector, node int, m *mac.MAC) {
	if tr == nil {
		return
	}
	m.SetOnDrop(func(f radio.Frame, reason mac.DropReason) {
		if p, ok := f.Payload.(core.Packet); ok {
			tr.PacketDropped(node, p.Src, p.Dst, p.Seq, reason.String())
		}
	})
}

// wireTraceAgent maps a BCP agent's packet observer onto the collector:
// store-and-forward events become forwards, everything else a drop
// named by the event.
func wireTraceAgent(tr *trace.Collector, node int, a *core.Agent) {
	if tr == nil {
		return
	}
	a.SetOnPacket(func(ev core.PacketEvent, p core.Packet) {
		if ev == core.PacketForwarded {
			tr.PacketForwarded(node, p.Src, p.Dst, p.Seq)
			return
		}
		tr.PacketDropped(node, p.Src, p.Dst, p.Seq, ev.String())
	})
}

// buildSensorModel attaches only sensor radios with hop-by-hop
// forwarding. Idle is free (a base cost, per the paper); overhearing is
// charged into the Overhear ledger so both Sensor-ideal and
// Sensor-header totals come out of one run.
func buildSensorModel(
	s *Scenario,
	sched *sim.Scheduler,
	recorder *workload.Recorder,
	tr *trace.Collector,
) ([]*mac.MAC, []func(core.Packet), error) {
	layout, sink := s.layout, s.sinkID
	nodes := layout.Len()
	ch, err := radio.NewChannel(sched, radio.Config{
		Name:       "sensor",
		Profile:    s.sensorProfile,
		LossProb:   s.links.SensorLoss,
		LossAt:     s.links.SensorLossAt,
		HeaderSize: params.SensorHeader,
	}, layout)
	if err != nil {
		return nil, nil, err
	}
	tree, err := routing.BuildTree(layout, sink, s.sensorProfile.Range)
	if err != nil {
		return nil, nil, err
	}
	macs := make([]*mac.MAC, nodes)
	emit := make([]func(core.Packet), nodes)
	for i := 0; i < nodes; i++ {
		x, err := ch.Attach(radio.NodeID(i), radio.OverhearHeaderOnly, true)
		if err != nil {
			return nil, nil, err
		}
		x.Meter().SetFreeState(energy.Idle, true)
		m, err := mac.New(mac.SensorParams(), sched, x)
		if err != nil {
			return nil, nil, err
		}
		macs[i] = m
		wireTraceRadio(tr, i, "sensor", x)
		wireTraceMACDrops(tr, i, m)
		var deliver func(core.Packet)
		if i == sink {
			deliver = tracedDeliver(tr, i, recorder.Receive)
		}
		f := newForwarder(i, m, tree, params.SensorHeader, deliver, tr)
		emit[i] = f.submit
	}
	return macs, emit, nil
}

// buildWifiModel attaches only 802.11 radios, always on, fully charged.
func buildWifiModel(
	s *Scenario,
	sched *sim.Scheduler,
	recorder *workload.Recorder,
	tr *trace.Collector,
) ([]*mac.MAC, []func(core.Packet), error) {
	layout, sink := s.layout, s.sinkID
	nodes := layout.Len()
	wifiRange := s.wifiRange
	if wifiRange == 0 {
		wifiRange = s.wifiProfile.Range
	}
	ch, err := radio.NewChannel(sched, radio.Config{
		Name:       "wifi",
		Profile:    s.wifiProfile,
		Range:      wifiRange,
		LossProb:   s.links.WifiLoss,
		LossAt:     s.links.WifiLossAt,
		HeaderSize: params.WifiHeader,
	}, layout)
	if err != nil {
		return nil, nil, err
	}
	tree, err := routing.BuildTree(layout, sink, wifiRange)
	if err != nil {
		return nil, nil, err
	}
	macs := make([]*mac.MAC, nodes)
	emit := make([]func(core.Packet), nodes)
	for i := 0; i < nodes; i++ {
		x, err := ch.Attach(radio.NodeID(i), radio.OverhearFull, true)
		if err != nil {
			return nil, nil, err
		}
		m, err := mac.New(mac.WifiParams(), sched, x)
		if err != nil {
			return nil, nil, err
		}
		macs[i] = m
		wireTraceRadio(tr, i, "wifi", x)
		wireTraceMACDrops(tr, i, m)
		var deliver func(core.Packet)
		if i == sink {
			deliver = tracedDeliver(tr, i, recorder.Receive)
		}
		// The pure-802.11 model sends each sensor packet as its own
		// (inefficient) small frame, as nodes have no reason to batch.
		f := newForwarder(i, m, tree, params.WifiHeader, deliver, tr)
		emit[i] = f.submit
	}
	return macs, emit, nil
}

// buildDualModel attaches both radios and a BCP agent per node.
func buildDualModel(
	s *Scenario,
	sched *sim.Scheduler,
	recorder *workload.Recorder,
	tr *trace.Collector,
) ([]*mac.MAC, []*mac.MAC, []*core.Agent, []func(core.Packet), error) {
	layout, sink := s.layout, s.sinkID
	nodes := layout.Len()
	sensorCh, err := radio.NewChannel(sched, radio.Config{
		Name:       "sensor",
		Profile:    s.sensorProfile,
		LossProb:   s.links.SensorLoss,
		LossAt:     s.links.SensorLossAt,
		HeaderSize: params.SensorHeader,
	}, layout)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	wifiRange := s.wifiRange
	if wifiRange == 0 {
		wifiRange = s.wifiProfile.Range
	}
	wifiCh, err := radio.NewChannel(sched, radio.Config{
		Name:          "wifi",
		Profile:       s.wifiProfile,
		Range:         wifiRange,
		LossProb:      s.links.WifiLoss,
		LossAt:        s.links.WifiLossAt,
		WakeupLatency: params.WifiWakeupLatency,
		HeaderSize:    params.WifiHeader,
	}, layout)
	if err != nil {
		return nil, nil, nil, nil, err
	}

	mesh, err := routing.BuildMesh(layout, s.sensorProfile.Range)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	var wifiRoute core.NextHopper
	if s.useShortcutLearner {
		sensorTree, err := routing.BuildTree(layout, sink, s.sensorProfile.Range)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		wifiRoute = routing.NewLearner(sensorTree, layout, wifiRange, true)
	} else {
		wifiTree, err := routing.BuildTree(layout, sink, wifiRange)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		wifiRoute = wifiTree
	}
	addr := routing.IdentityAddrMap(nodes)

	sensorM := make([]*mac.MAC, nodes)
	wifiM := make([]*mac.MAC, nodes)
	agents := make([]*core.Agent, nodes)
	emit := make([]func(core.Packet), nodes)
	for i := 0; i < nodes; i++ {
		sx, err := sensorCh.Attach(radio.NodeID(i), radio.OverhearFree, true)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		sx.Meter().SetFreeState(energy.Idle, true)
		wx, err := wifiCh.Attach(radio.NodeID(i), radio.OverhearFull, false)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		sm, err := mac.New(mac.SensorParams(), sched, sx)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		wm, err := mac.New(mac.WifiParams(), sched, wx)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		sensorM[i], wifiM[i] = sm, wm
		wireTraceRadio(tr, i, "sensor", sx)
		wireTraceRadio(tr, i, "wifi", wx)
		// The agent owns the wifi MAC's drop callback (burst-frame
		// accounting) but leaves the sensor MAC's free; wiring it
		// catches delay-bound data packets the CSMA MAC abandons.
		wireTraceMACDrops(tr, i, sm)

		agentCfg := core.DefaultConfig(i, s.burstPackets)
		agentCfg.PostBurstLinger = s.postBurstLinger
		if s.minGrantPackets > 0 {
			agentCfg.MinGrant = units.ByteSize(s.minGrantPackets) * params.SensorPayload
		}
		if s.adaptiveAlpha > 0 {
			agentCfg.AdaptiveThreshold = true
			agentCfg.ThresholdAlpha = s.adaptiveAlpha
		}
		agentCfg.DelayBound = s.delayBound
		var deliver func(core.Packet)
		if i == sink {
			deliver = tracedDeliver(tr, i, recorder.Receive)
		}
		a, err := core.NewAgent(agentCfg, sched, sm, wm, mesh, wifiRoute, addr, deliver)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		agents[i] = a
		wireTraceAgent(tr, i, a)
		emit[i] = a.Buffer
	}
	return sensorM, wifiM, agents, emit, nil
}

// source is the common surface of the workload generators.
type source interface {
	Stop()
	Generated() (packets uint64, bits int64)
}

// newSource builds and starts the configured traffic model for one
// sender.
func newSource(
	s *Scenario,
	sched *sim.Scheduler,
	rate units.BitRate,
	sender, sink int,
	startWindow time.Duration,
	emit func(core.Packet),
) (source, error) {
	switch s.workload.Traffic {
	case TrafficPoisson:
		g, err := workload.NewPoisson(sched, sender, sink, rate, params.SensorPayload, emit)
		if err != nil {
			return nil, err
		}
		g.Start()
		return g, nil
	case TrafficOnOff:
		// Mean 2 s ON at 16x the mean rate; OFF sized so the long-run
		// average matches the configured rate: duty = 1/16 ->
		// meanOff = 15 * meanOn.
		const burstiness = 16
		meanOn := 2 * time.Second
		meanOff := (burstiness - 1) * meanOn
		g, err := workload.NewOnOff(sched, sender, sink,
			rate*burstiness, params.SensorPayload, meanOn, meanOff, emit)
		if err != nil {
			return nil, err
		}
		g.Start()
		return g, nil
	default:
		g, err := workload.NewCBR(sched, sender, sink, rate, params.SensorPayload, emit)
		if err != nil {
			return nil, err
		}
		g.StartWithin(startWindow)
		return g, nil
	}
}

func addAgentStats(a, b core.Stats) core.Stats {
	a.PacketsBuffered += b.PacketsBuffered
	a.PacketsDropped += b.PacketsDropped
	a.PacketsDelivered += b.PacketsDelivered
	a.PacketsForwarded += b.PacketsForwarded
	a.PacketsLost += b.PacketsLost
	a.Handshakes += b.Handshakes
	a.HandshakeFailures += b.HandshakeFailures
	a.WakeupResends += b.WakeupResends
	a.GrantsDenied += b.GrantsDenied
	a.GrantsReduced += b.GrantsReduced
	a.GrantsDeclined += b.GrantsDeclined
	a.BurstsSent += b.BurstsSent
	a.BurstsReceived += b.BurstsReceived
	a.FramesSent += b.FramesSent
	a.FramesLost += b.FramesLost
	a.ReceiverTimeouts += b.ReceiverTimeouts
	a.ThresholdAdaptations += b.ThresholdAdaptations
	a.SensorSends += b.SensorSends
	a.SensorForwards += b.SensorForwards
	return a
}

// RunMany executes n runs with seeds base..base+n-1 and returns results
// in seed order. Repetitions execute concurrently (up to
// runtime.NumCPU workers); every run derives all of its randomness
// from its own seed and shares no state with its siblings, so the
// output is identical to serial execution. Grid sweeps should prefer
// the sweep package, which adds cross-cell batching and result
// caching on top of the same parallelism.
func RunMany(cfg Config, runs int, baseSeed int64) ([]Result, error) {
	return RunManyWorkers(cfg, runs, baseSeed, 0)
}

// RunManyWorkers is RunMany with an explicit concurrency limit
// (workers < 1 selects runtime.NumCPU()).
func RunManyWorkers(cfg Config, runs int, baseSeed int64, workers int) ([]Result, error) {
	return runSeeded(runs, workers, func(r int) (Result, error) {
		c := cfg
		c.Seed = baseSeed + int64(r)
		return Run(c)
	})
}

// RunScenarioMany executes runs seeded repetitions of a scenario
// (seeds base..base+runs-1) concurrently, in seed order. The scenario's
// placement and churn schedule are part of the scenario and stay fixed
// across repetitions; only the run seed (channel noise, MAC backoff,
// arrival processes) varies.
func RunScenarioMany(s *Scenario, runs int, baseSeed int64) ([]Result, error) {
	return runSeeded(runs, 0, func(r int) (Result, error) {
		return RunScenario(s.withSeed(baseSeed + int64(r)))
	})
}

// runSeeded fans repetitions over a worker pool, preserving order.
func runSeeded(runs, workers int, run func(r int) (Result, error)) ([]Result, error) {
	if runs < 1 {
		return nil, fmt.Errorf("netsim: runs %d < 1", runs)
	}
	if workers < 1 {
		workers = runtime.NumCPU()
	}
	if workers > runs {
		workers = runs
	}
	out := make([]Result, runs)
	errs := make([]error, runs)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				r := int(next.Add(1)) - 1
				if r >= runs {
					return
				}
				out[r], errs[r] = run(r)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Summaries reduces repeated runs to the paper's three metrics.
func Summaries(results []Result) (goodput, normEnergy, idealEnergy metrics.Summary, meanDelay time.Duration) {
	gs := make([]float64, 0, len(results))
	es := make([]float64, 0, len(results))
	is := make([]float64, 0, len(results))
	var delaySum time.Duration
	var delayN int
	for _, r := range results {
		gs = append(gs, r.Goodput())
		es = append(es, r.NormalizedEnergy())
		ideal := r.RunResult
		ideal.TotalEnergy = r.IdealEnergy
		is = append(is, ideal.NormalizedEnergy())
		delaySum += r.MeanDelay() * time.Duration(1)
		delayN++
	}
	if delayN > 0 {
		meanDelay = delaySum / time.Duration(delayN)
	}
	return metrics.Summarize(gs), metrics.Summarize(es), metrics.Summarize(is), meanDelay
}

// RunDebug executes one run and reports each node's wifi meter to probe
// (test/diagnostic hook; the callback receives the node index, its wifi
// meter and whether the radio is still on at the end of the run).
func RunDebug(cfg Config, probe func(i int, wifi *energy.Meter, on bool)) (Result, error) {
	s, err := cfg.Scenario()
	if err != nil {
		return Result{}, err
	}
	return runInstrumented(s, probe)
}

package experiments

import (
	"fmt"
	"time"

	"bulktx/internal/metrics"
	"bulktx/internal/netsim"
)

// Ablations probe the protocol's design choices and the paper's open
// extensions. They are not paper artifacts but sensitivity studies
// around them. Each ablation builds its curves up front and runs them
// as one grid (Scale.grid) on the shared sweep engine, so the cells run
// in parallel and repeat runs hit the cache.

// AblationShortcut compares the multi-hop dual model routing bursts over
// a wifi tree (the evaluation default) against sensor-tree next hops
// upgraded by Section 3's shortcut learning.
func AblationShortcut(s Scale) (metrics.Table, error) {
	tbl := metrics.Table{
		Title:  "Ablation: wifi-tree routing vs shortcut learning (MH, burst 100)",
		XLabel: "senders",
		YLabel: "normalized energy (J/Kbit)",
	}
	var curves [][]netsim.Config
	for _, learner := range []bool{false, true} {
		curve := s.senderCurve(MultiHop, netsim.ModelDual, 100)
		for i := range curve {
			curve[i].UseShortcutLearner = learner
		}
		curves = append(curves, curve)
	}
	return s.plot(tbl, []string{"wifi-tree", "shortcut-learner"}, s.senderXs(), normEnergy, curves...)
}

// AblationLinger sweeps the post-burst idle linger (Figure 4's "idle"
// scenario carried into the full simulation): energy rises as radios
// linger longer before shutting down.
func AblationLinger(s Scale) (metrics.Table, error) {
	tbl := metrics.Table{
		Title:  "Ablation: post-burst linger (SH, burst 500, 15 senders)",
		XLabel: "linger(ms)",
		YLabel: "normalized energy (J/Kbit)",
	}
	lingers := []time.Duration{
		0, 10 * time.Millisecond, 100 * time.Millisecond, time.Second,
	}
	curve := make([]netsim.Config, len(lingers))
	xs := make([]float64, len(lingers))
	for i, linger := range lingers {
		curve[i] = s.baseConfig(SingleHop, netsim.ModelDual, 15, 500)
		curve[i].PostBurstLinger = linger
		xs[i] = float64(linger.Milliseconds())
	}
	return s.plot(tbl, []string{"DualRadio-500"}, xs, normEnergy, curve)
}

// AblationMinGrant evaluates the paper's unevaluated extension: senders
// give up when the receiver grants less than the break-even amount.
func AblationMinGrant(s Scale) (metrics.Table, error) {
	tbl := metrics.Table{
		Title:  "Ablation: give-up-below-s* extension (SH, burst 500)",
		XLabel: "senders",
		YLabel: "goodput",
	}
	const declineBelow = 40
	var curves [][]netsim.Config
	for _, minGrant := range []int{0, declineBelow} {
		curve := s.senderCurve(SingleHop, netsim.ModelDual, 500)
		for i := range curve {
			curve[i].MinGrantPackets = minGrant
		}
		curves = append(curves, curve)
	}
	labels := []string{"accept-any-grant", fmt.Sprintf("decline-below-%d", declineBelow)}
	return s.plot(tbl, labels, s.senderXs(), goodput, curves...)
}

// AblationAdaptive compares static burst thresholds against the adaptive
// extension (the paper's stated future work: adapt s* to observed
// retransmissions) under wifi loss, where the static threshold is
// miscalibrated.
func AblationAdaptive(s Scale) (metrics.Table, error) {
	tbl := metrics.Table{
		Title:  "Ablation: static vs adaptive threshold under 802.11 loss (SH, 15 senders)",
		XLabel: "wifi loss",
		YLabel: "normalized energy (J/Kbit)",
	}
	const adaptiveAlpha = 2.0
	losses := []float64{0, 0.1, 0.3}
	var curves [][]netsim.Config
	for _, alpha := range []float64{0, adaptiveAlpha} {
		var curve []netsim.Config
		for _, loss := range losses {
			cfg := s.baseConfig(SingleHop, netsim.ModelDual, 15, 500)
			cfg.WifiLoss = loss
			cfg.AdaptiveThresholdAlpha = alpha
			curve = append(curve, cfg)
		}
		curves = append(curves, curve)
	}
	labels := []string{"static-500", fmt.Sprintf("adaptive-alpha-%g", adaptiveAlpha)}
	return s.plot(tbl, labels, losses, normEnergy, curves...)
}

// AblationDelayBound measures the delay-constrained extension (paper
// Section 5 future work): how much energy does honoring a delay bound
// cost when traffic trickles below the threshold?
func AblationDelayBound(s Scale) (metrics.Table, error) {
	tbl := metrics.Table{
		Title:  "Ablation: delay-bound reroute over the low-power radio (SH, 5 senders, burst 1000)",
		XLabel: "bound(s)",
		YLabel: "normalized energy (J/Kbit)",
	}
	bounds := []time.Duration{
		0, 60 * time.Second, 20 * time.Second, 5 * time.Second,
	}
	curve := make([]netsim.Config, len(bounds))
	xs := make([]float64, len(bounds))
	for i, bound := range bounds {
		curve[i] = s.baseConfig(SingleHop, netsim.ModelDual, 5, 1000)
		curve[i].DelayBound = bound
		xs[i] = bound.Seconds()
	}
	cells, err := s.grid(curve)
	if err != nil {
		return tbl, err
	}
	meanDelay := func(c cell) metrics.Summary { return point(c.MeanDelay.Seconds()) }
	tbl.Series = []metrics.Series{
		series("energy", xs, cells[0], normEnergy),
		series("mean-delay(s)", xs, cells[0], meanDelay),
	}
	return tbl, nil
}

// AblationLoss sweeps sensor-channel loss to exercise the wake-up
// retry machinery (handshake robustness).
func AblationLoss(s Scale) (metrics.Table, error) {
	tbl := metrics.Table{
		Title:  "Ablation: sensor-channel loss vs goodput (SH, burst 100, 15 senders)",
		XLabel: "loss",
		YLabel: "goodput",
	}
	losses := []float64{0, 0.1, 0.2, 0.4}
	curve := make([]netsim.Config, len(losses))
	for i, loss := range losses {
		curve[i] = s.baseConfig(SingleHop, netsim.ModelDual, 15, 100)
		curve[i].SensorLoss = loss
	}
	return s.plot(tbl, []string{"DualRadio-100"}, losses, goodput, curve)
}

// AblationTopology re-asks the paper's central energy question on every
// layout family the Scenario API offers: does bulk transmission keep
// beating the sensor network when the deployment is not a survey grid?
func AblationTopology(s Scale) (metrics.Table, error) {
	tbl := metrics.Table{
		Title:  "Ablation: deployment topology vs normalized energy (SH, burst 500)",
		XLabel: "senders",
		YLabel: "normalized energy (J/Kbit)",
	}
	topologies := []string{netsim.TopoGrid, netsim.TopoClustered, netsim.TopoLinear}
	var curves [][]netsim.Config
	for _, topol := range topologies {
		curve := s.senderCurve(SingleHop, netsim.ModelDual, 500)
		for i := range curve {
			// Grid cells keep the default empty topology (and no
			// placement seed) so their cache keys coincide with the
			// default-grid runs every other figure already produces.
			if topol != netsim.TopoGrid {
				curve[i].Topology = topol
			}
			if topol == netsim.TopoClustered {
				// Placement fixed across seeds and sender counts.
				curve[i].TopologySeed = 1
			}
		}
		curves = append(curves, curve)
	}
	return s.plot(tbl, topologies, s.senderXs(), normEnergy, curves...)
}

// AblationChurn sweeps the node failure rate: goodput degrades
// gracefully (the sink survives; only traffic transiting failed nodes
// is lost) while the energy advantage persists.
func AblationChurn(s Scale) (metrics.Table, error) {
	tbl := metrics.Table{
		Title:  "Ablation: node churn vs goodput (SH, burst 100, 15 senders)",
		XLabel: "failures per node-hour",
		YLabel: "goodput",
	}
	rates := []float64{0, 1, 2, 4, 8}
	curve := make([]netsim.Config, len(rates))
	for i, rate := range rates {
		curve[i] = s.baseConfig(SingleHop, netsim.ModelDual, 15, 100)
		curve[i].ChurnRate = rate
		curve[i].ChurnMeanDowntime = 30 * time.Second
	}
	return s.plot(tbl, []string{"DualRadio-100"}, rates, goodput, curve)
}

package experiments

import (
	"fmt"
	"slices"

	"bulktx/internal/metrics"
)

// Runner regenerates one paper artifact at the given scale.
type Runner func(Scale) (metrics.Table, error)

// experiment is one registry entry: a name, the runner that
// regenerates the artifact (analytic artifacts and the prototype
// figures ignore the scale), and the one-line account Describe returns.
type experiment struct {
	name string
	run  Runner
	desc string
}

// registry is the one table of experiments, in paper order: Table 1
// and Figures 1-4 are analytic; Figures 5-12 and the ablations run
// their grids on the shared engine (ConfigureEngine). Names, Describe
// and Run all read it, and the README's "Reproducing the paper"
// walkthrough and the bcp-report generator render from it, so it is
// the single source of the name -> figure mapping.
var registry = []experiment{
	{"table1", func(Scale) (metrics.Table, error) { return Table1(), nil },
		"Paper Table 1 — the radio energy characteristics (analytic; read straight from the profile definitions)."},
	{"fig1", func(Scale) (metrics.Table, error) { return Fig1() },
		"Paper Figure 1 — energy consumption vs data size on a single hop with free idling (Section 2 break-even model)."},
	{"fig2", func(Scale) (metrics.Table, error) { return Fig2() },
		"Paper Figure 2 — break-even data size vs high-power idle time (Section 2 break-even model)."},
	{"fig3", func(Scale) (metrics.Table, error) { return Fig3() },
		"Paper Figure 3 — break-even data size vs multi-hop forward progress (Section 2 break-even model)."},
	{"fig4", func(Scale) (metrics.Table, error) { return Fig4() },
		"Paper Figure 4 — energy savings vs burst size under the wake-up/idle cost model (Section 2)."},
	{"fig5", Fig5, "Paper Figure 5 — single-hop goodput vs number of senders (simulated; dual-radio curves per burst size plus Sensor and 802.11 baselines)."},
	{"fig6", Fig6, "Paper Figure 6 — single-hop normalized energy (J/Kbit) vs senders (simulated; includes Sensor-ideal and Sensor-header charging policies)."},
	{"fig7", Fig7, "Paper Figure 7 — single-hop normalized energy vs mean delay, one point per burst size (simulated)."},
	{"fig8", Fig8, "Paper Figure 8 — multi-hop goodput vs senders (simulated; Cabletron reaches the sink in one hop)."},
	{"fig9", Fig9, "Paper Figure 9 — multi-hop normalized energy vs senders (simulated)."},
	{"fig10", Fig10, "Paper Figure 10 — multi-hop normalized energy vs mean delay (simulated)."},
	{"fig11", func(Scale) (metrics.Table, error) { return Fig11() },
		"Paper Figure 11 — prototype energy per packet vs the alpha-s* threshold (mote emulation, Section 4.2)."},
	{"fig12", func(Scale) (metrics.Table, error) { return Fig12() },
		"Paper Figure 12 — prototype energy per packet vs delay per packet (mote emulation, Section 4.2)."},

	{"ablation-shortcut", AblationShortcut, "Beyond the paper: Section 3's route shortcut learning vs a plain wifi routing tree."},
	{"ablation-linger", AblationLinger, "Beyond the paper: post-burst idle linger, quantifying Figure 4's \"idle\" scenario in simulation."},
	{"ablation-mingrant", AblationMinGrant, "Beyond the paper: the give-up extension — aborting handshakes whose grant falls below s*."},
	{"ablation-loss", AblationLoss, "Beyond the paper: goodput under injected sensor-channel loss."},
	{"ablation-adaptive", AblationAdaptive, "Beyond the paper: static vs adaptive thresholds under 802.11 loss (the paper's future-work direction)."},
	{"ablation-delaybound", AblationDelayBound, "Beyond the paper: the delay-bound extension rerouting overdue packets over the low-power radio."},
	{"ablation-topology", AblationTopology, "Beyond the paper: normalized energy across deployment topologies (grid, uniform, clustered, linear)."},
	{"ablation-churn", AblationChurn, "Beyond the paper: goodput under random node failure and recovery."},
}

// lookup returns the named experiment.
func lookup(name string) (experiment, bool) {
	for _, e := range registry {
		if e.name == name {
			return e, true
		}
	}
	return experiment{}, false
}

// Describe returns the registry's one-line account of which paper
// artifact an experiment reproduces (or, for ablations, what question
// it answers). Unknown names return an empty string.
func Describe(name string) string {
	e, _ := lookup(name)
	return e.desc
}

// Names returns the registry names in sorted order.
func Names() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.name
	}
	slices.Sort(names)
	return names
}

// Run looks up and executes one experiment by name.
func Run(name string, s Scale) (metrics.Table, error) {
	e, ok := lookup(name)
	if !ok {
		return metrics.Table{}, fmt.Errorf("experiments: unknown experiment %q (have %v)",
			name, Names())
	}
	return e.run(s)
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"bulktx/internal/experiments"
	"bulktx/internal/netsim"
	"bulktx/internal/params"
	"bulktx/internal/sweep"
)

// paperHorizon is paper-quick's simulated run length. QuickScale's own
// 600 s makes a pass take ~27 s, so a run would hold too few passes.
const paperHorizon = 60 * time.Second

// paperWorkers is the sweep pool size: one per core of the 2-core
// machines the benchmark is sized for.
const paperWorkers = 2

// paperCells is the number of cells in one pass of the grid.
const paperCells = 48

// paperJobs returns one pass of the paper-quick grid at a run seed:
// single-hop and multi-hop, the sensor, 802.11 and dual models, the
// QuickScale sender counts and, for the dual model, its burst sizes —
// 48 cells in canonical order.
func paperJobs(runSeed int64) ([]sweep.Job, error) {
	sc := experiments.QuickScale()
	var jobs []sweep.Job
	for _, multiHop := range []bool{false, true} {
		base := func(model netsim.Model, burst int) netsim.Config {
			var cfg netsim.Config
			if multiHop {
				cfg = netsim.MultiHopConfig(sc.Senders[0], burst, runSeed)
				cfg.Rate = sc.MHRate
			} else {
				cfg = netsim.DefaultConfig(model, sc.Senders[0], burst, runSeed)
				cfg.Rate = sc.SHRate
			}
			cfg.Model = model
			cfg.Duration = paperHorizon
			return cfg
		}
		specs := []sweep.Spec{
			{Base: base(netsim.ModelDual, sc.Bursts[0]), Senders: sc.Senders, Bursts: sc.Bursts,
				Runs: 1, BaseSeed: runSeed},
			{Base: base(netsim.ModelSensor, 1), Models: []netsim.Model{netsim.ModelSensor, netsim.ModelWifi},
				Senders: sc.Senders, Runs: 1, BaseSeed: runSeed},
		}
		for _, spec := range specs {
			js, err := spec.Jobs()
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, js...)
		}
	}
	return jobs, nil
}

// paperPass is one pass of the schedule: a fresh run seed, so no cell
// is served from the cache, and the order the cells are submitted in.
type paperPass struct {
	Seed  int64
	Order []int
}

// planPaperPass derives pass k of a workload seed's schedule.
func planPaperPass(seed int64, k, cells int) paperPass {
	r := rand.New(rand.NewSource(seed*1_000_003 + int64(k)))
	return paperPass{Seed: r.Int63(), Order: r.Perm(cells)}
}

// runPaperQuick runs whole passes of the grid through a 2-worker
// sweep pool with an in-memory cache, in a closed loop, until the
// window ends; the cache is replaced between passes, so peak memory
// does not grow with the number of passes a faster program completes. Each op is one cell; its latency is the cell's
// simulation time on its worker (JobUpdate.Duration). Outside the
// window, pass 0 is recomputed serially with netsim and must match the
// pool's results byte-for-byte.
func runPaperQuick(o options, spans *spanLog) (*measurement, error) {
	m := &measurement{layers: map[string]float64{}}
	var pool *sweep.Pool
	for range setupReps {
		start := time.Now()
		jobs, err := paperJobs(planPaperPass(o.seed, 0, paperCells).Seed)
		if err != nil {
			return nil, err
		}
		if len(jobs) != paperCells {
			return nil, fmt.Errorf("paper-quick grid has %d cells, want %d", len(jobs), paperCells)
		}
		pool = &sweep.Pool{Workers: paperWorkers, Cache: sweep.NewCache()}
		m.setups = append(m.setups, time.Since(start))
	}

	var (
		firstJobs    []sweep.Job
		firstResults []netsim.Result
		cellTimes    []time.Duration
		waitTime     time.Duration // idle worker time summed over passes
		cached       int
		passes       int
	)
	prof, err := startProcTrace(spans != nil)
	if err != nil {
		return nil, err
	}
	u0 := selfUsage()
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds) * time.Second)
	for k := 0; time.Now().Before(deadline); k++ {
		plan := planPaperPass(o.seed, k, paperCells)
		canon, err := paperJobs(plan.Seed)
		if err != nil {
			return nil, err
		}
		jobs := make([]sweep.Job, len(canon))
		for i, j := range plan.Order {
			jobs[i] = canon[j]
		}
		if k > 0 {
			// Each pass's seed is fresh, so earlier passes' results can
			// never hit: a new cache keeps the footprint at one pass.
			pool.Cache = sweep.NewCache()
		}
		passOp := fmt.Sprintf("pass%d", k)
		var passCell time.Duration
		passStart := time.Now()
		out, err := pool.RunJobsProgress(jobs, func(u sweep.JobUpdate) {
			passCell += u.Duration
			cellTimes = append(cellTimes, u.Duration)
			// A cell served from the cache repeats an earlier pass's
			// seed: the schedule is broken and the op measured nothing.
			if u.Cached {
				cached++
			}
			if u.Err != nil || u.Cached {
				m.failed++
				m.ops = append(m.ops, failedLatency)
			} else {
				m.ops = append(m.ops, u.Duration)
			}
			if spans != nil {
				end := time.Now()
				spans.add(fmt.Sprintf("%s.cell%d", passOp, u.Index), "sweep.cell", passOp+"/sweep.pass",
					end.Add(-u.Duration), end)
			}
		})
		if err != nil {
			return nil, err
		}
		passEnd := time.Now()
		spans.add(passOp, "sweep.pass", "", passStart, passEnd)
		passes++
		waitTime += passEnd.Sub(passStart)*paperWorkers - passCell
		for _, r := range out.Results {
			m.events += r.Events
		}
		if k == 0 {
			firstJobs, firstResults = jobs, out.Results
		}
	}
	m.wall = time.Since(start)
	u1 := selfUsage()
	m.peakRSS, m.cpu = u1.peakRSS, u1.cpu-u0.cpu
	m.attempted = len(m.ops)
	prof.stop(m)

	mismatches, builds, err := recomputeSerially(firstJobs, firstResults, "check", spans)
	if err != nil {
		return nil, err
	}
	m.failed += mismatches
	addResultCounts(m.layers, firstResults)
	m.layers["netsim.build_ms"] = ms(median(builds))
	m.layers["sweep.cell_ms"] = ms(median(cellTimes))
	m.layers["sweep.wait_ms"] = ms(waitTime) / float64(passes)
	m.layers["sweep.cache_hit_ratio"] = float64(cached) / float64(len(m.ops))
	m.inputs = map[string]any{
		"cells_per_pass":  len(firstJobs),
		"cell_mix":        paperCellMix(firstJobs),
		"events_per_pass": m.layers["sim.events"],
		"passes":          passes,
		"horizon_s":       paperHorizon.Seconds(),
		"pool_workers":    paperWorkers,
	}
	return m, nil
}

// recomputeSerially reruns each job with netsim (build, then run) and
// counts results that differ byte-for-byte from want. It returns the
// build-call times alongside.
func recomputeSerially(jobs []sweep.Job, want []netsim.Result, op string, spans *spanLog) (int, []time.Duration, error) {
	mismatches := 0
	builds := make([]time.Duration, 0, len(jobs))
	for i, j := range jobs {
		cellOp := fmt.Sprintf("%s.cell%d", op, i)
		t0 := time.Now()
		s, err := j.Config.Scenario()
		if err != nil {
			return 0, nil, err
		}
		t1 := time.Now()
		res, err := netsim.RunScenario(s)
		if err != nil {
			return 0, nil, err
		}
		t2 := time.Now()
		builds = append(builds, t1.Sub(t0))
		spans.add(cellOp, "netsim.build", "", t0, t1)
		spans.add(cellOp, "netsim.run", "", t1, t2)
		if !sameResult(res, want[i]) {
			mismatches++
		}
	}
	return mismatches, builds, nil
}

// sameResult compares two results by their JSON encoding, the form the
// repository's fingerprints hash.
func sameResult(a, b netsim.Result) bool {
	ea, errA := json.Marshal(a)
	eb, errB := json.Marshal(b)
	return errA == nil && errB == nil && bytes.Equal(ea, eb)
}

// paperCellMix counts a pass's cells per case and model.
func paperCellMix(jobs []sweep.Job) map[string]int {
	mix := map[string]int{}
	for _, j := range jobs {
		c := "single-hop"
		if j.Config.WifiRange == params.WifiLongRange {
			c = "multi-hop"
		}
		mix[c+"/"+j.Point.Model.String()]++
	}
	return mix
}

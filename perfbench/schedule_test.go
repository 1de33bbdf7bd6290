package main

import (
	"reflect"
	"slices"
	"testing"

	"bulktx/internal/sweep"
)

func TestScalePlanUsesWorkloadSeed(t *testing.T) {
	if seed, want := scalePlan(1); seed != 1 || want != goldenScaling10k {
		t.Errorf("scalePlan(1) = %d, %q", seed, want)
	}
	if seed, want := scalePlan(7); seed != 7 || want != "" {
		t.Errorf("scalePlan(7) = %d, %q", seed, want)
	}
}

func TestPaperPassPlanIsSeeded(t *testing.T) {
	seen := map[int64]bool{}
	for k := range 50 {
		a, b := planPaperPass(3, k, paperCells), planPaperPass(3, k, paperCells)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("pass %d differs between two plans of one seed", k)
		}
		if seen[a.Seed] {
			t.Fatalf("pass %d reuses a run seed", k)
		}
		seen[a.Seed] = true
		order := slices.Clone(a.Order)
		slices.Sort(order)
		for i, v := range order {
			if i != v {
				t.Fatalf("pass %d order is not a permutation of %d cells", k, paperCells)
			}
		}
	}
	if reflect.DeepEqual(planPaperPass(3, 0, paperCells), planPaperPass(4, 0, paperCells)) {
		t.Error("workload seeds 3 and 4 plan the same first pass")
	}
}

func TestPaperJobsGrid(t *testing.T) {
	jobs, err := paperJobs(99)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != paperCells {
		t.Fatalf("%d cells, want %d", len(jobs), paperCells)
	}
	keys := map[string]bool{}
	for _, j := range jobs {
		if j.Config.Seed != 99 || j.Config.Duration != paperHorizon {
			t.Errorf("cell %v: seed %d horizon %v", j.Point, j.Config.Seed, j.Config.Duration)
		}
		k, err := sweep.Key(j.Config)
		if err != nil {
			t.Fatal(err)
		}
		keys[k] = true
	}
	if len(keys) != paperCells {
		t.Errorf("%d distinct configurations, want %d", len(keys), paperCells)
	}
	want := map[string]int{}
	for _, c := range []string{"single-hop", "multi-hop"} {
		want[c+"/sensor"], want[c+"/802.11"], want[c+"/dual-radio"] = 4, 4, 16
	}
	if got := paperCellMix(jobs); !reflect.DeepEqual(got, want) {
		t.Errorf("cell mix %v, want %v", got, want)
	}
}

func TestServeScheduleIsSeeded(t *testing.T) {
	const n = 4000
	a, b := serveSchedule(5, n), serveSchedule(5, n)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed gave two schedules")
	}
	if reflect.DeepEqual(a, serveSchedule(6, n)) {
		t.Fatal("seeds 5 and 6 gave the same schedule")
	}
	if !a[0].Fresh {
		t.Fatal("first op is not fresh")
	}
	freshSeeds := map[int64]bool{}
	var fresh []int
	for i, op := range a {
		if i%serveBlock == 0 {
			block := a[i:min(i+serveBlock, n)]
			if c := countFresh(block); c != 1 {
				t.Fatalf("block at %d holds %d fresh ops, want 1", i, c)
			}
		}
		if op.Fresh {
			if freshSeeds[op.Seed] || op.Target != i {
				t.Fatalf("fresh op %d reuses seed %d or targets %d", i, op.Seed, op.Target)
			}
			freshSeeds[op.Seed] = true
			fresh = append(fresh, i)
			continue
		}
		recent := fresh[max(0, len(fresh)-serveRecent):]
		if !slices.Contains(recent, op.Target) || a[op.Target].Seed != op.Seed {
			t.Fatalf("repeat %d targets op %d, not one of the last %d fresh ops", i, op.Target, serveRecent)
		}
	}
}

func countFresh(ops []serveOp) int {
	c := 0
	for _, op := range ops {
		if op.Fresh {
			c++
		}
	}
	return c
}

package sweep

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bulktx/internal/netsim"
	"bulktx/internal/params"
)

// testSpec is a small but real grid: dual cells plus a baseline model,
// two seeds each, at a duration that keeps each run to milliseconds.
func testSpec() Spec {
	base := netsim.DefaultConfig(netsim.ModelDual, 5, 10, 1)
	base.Rate = params.HighRate
	base.Duration = 60 * time.Second
	return Spec{
		Base:     base,
		Models:   []netsim.Model{netsim.ModelDual, netsim.ModelSensor},
		Senders:  []int{5, 15},
		Bursts:   []int{10, 100},
		Runs:     2,
		BaseSeed: 1,
	}
}

func TestSpecJobs(t *testing.T) {
	spec := testSpec()
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	// dual: 2 senders x 2 bursts x 2 reps = 8; sensor collapses the
	// burst axis: 2 senders x 2 reps = 4.
	if want := 12; len(jobs) != want {
		t.Fatalf("jobs = %d, want %d", len(jobs), want)
	}
	if got := spec.Size(); got != len(jobs) {
		t.Errorf("Size() = %d, want %d", got, len(jobs))
	}
	for _, job := range jobs {
		if job.Config.Seed != spec.BaseSeed+int64(job.Rep) {
			t.Errorf("job %v rep %d has seed %d", job.Point, job.Rep, job.Config.Seed)
		}
		if job.Point.Model != netsim.ModelDual {
			if job.Point.Burst != 0 {
				t.Errorf("baseline point %v carries a burst coordinate", job.Point)
			}
			if job.Config.BurstPackets != 1 {
				t.Errorf("baseline config burst = %d, want 1", job.Config.BurstPackets)
			}
		}
		if err := job.Config.Validate(); err != nil {
			t.Errorf("job %v: %v", job.Point, err)
		}
	}
}

func TestSpecAxisDefaults(t *testing.T) {
	base := netsim.DefaultConfig(netsim.ModelDual, 7, 100, 3)
	base.Duration = 60 * time.Second
	jobs, err := Spec{Base: base, BaseSeed: 3}.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 {
		t.Fatalf("jobs = %d, want 1 (all axes defaulted)", len(jobs))
	}
	if jobs[0].Config != base {
		t.Errorf("defaulted job diverges from base: %+v", jobs[0].Config)
	}
}

func TestSpecRejectsInvalid(t *testing.T) {
	spec := testSpec()
	spec.Senders = []int{0}
	if _, err := spec.Jobs(); err == nil {
		t.Error("invalid senders compiled without error")
	}
	spec = testSpec()
	spec.Runs = -1
	if _, err := spec.Jobs(); err == nil {
		t.Error("negative runs compiled without error")
	}
}

// serialResults is the ground truth: the job list executed one run at
// a time, in order, by netsim directly.
func serialResults(t *testing.T, jobs []Job) []netsim.Result {
	t.Helper()
	out := make([]netsim.Result, len(jobs))
	for i, job := range jobs {
		res, err := netsim.Run(job.Config)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = res
	}
	return out
}

// resultsEqual compares full results (counters, energies, and every
// per-packet delay), not just summaries.
func resultsEqual(a, b netsim.Result) bool {
	if a.RunResult.GeneratedBits != b.RunResult.GeneratedBits ||
		a.RunResult.DeliveredBits != b.RunResult.DeliveredBits ||
		a.RunResult.TotalEnergy != b.RunResult.TotalEnergy ||
		a.IdealEnergy != b.IdealEnergy ||
		a.SensorStats != b.SensorStats ||
		a.WifiStats != b.WifiStats ||
		a.AgentStats != b.AgentStats ||
		a.Events != b.Events ||
		len(a.RunResult.Delays) != len(b.RunResult.Delays) {
		return false
	}
	for i := range a.RunResult.Delays {
		if a.RunResult.Delays[i] != b.RunResult.Delays[i] {
			return false
		}
	}
	return true
}

func TestPoolParallelMatchesSerial(t *testing.T) {
	spec := testSpec()
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	want := serialResults(t, jobs)
	for _, workers := range []int{1, 4, 16} {
		pool := &Pool{Workers: workers}
		out, err := pool.RunJobs(jobs)
		if err != nil {
			t.Fatal(err)
		}
		got := out.Results
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if !resultsEqual(got[i], want[i]) {
				t.Errorf("workers=%d: job %d (%v rep %d) diverges from serial execution",
					workers, i, jobs[i].Point, jobs[i].Rep)
			}
		}
	}
}

func TestPoolProgress(t *testing.T) {
	jobs, err := testSpec().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	last := 0
	pool := &Pool{Workers: 4}
	if _, err := pool.RunJobsProgress(jobs, func(u JobUpdate) {
		if u.Total != len(jobs) {
			t.Errorf("progress total = %d, want %d", u.Total, len(jobs))
		}
		if u.Done != last+1 {
			t.Errorf("progress skipped or went backwards: %d after %d", u.Done, last)
		}
		last = u.Done
	}); err != nil {
		t.Fatal(err)
	}
	if last != len(jobs) {
		t.Errorf("final progress = %d, want %d", last, len(jobs))
	}
}

func TestPoolError(t *testing.T) {
	jobs, err := testSpec().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	jobs[3].Config.Nodes = 0 // invalid: fails Validate inside netsim.Run
	pool := &Pool{Workers: 4}
	out, err := pool.RunJobs(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Errors) != 1 {
		t.Fatalf("errors = %v, want the one failing job", out.Errors)
	}
	if ce := out.Errors[0]; ce.Index != 3 || !strings.Contains(ce.Error(), "cell 3") {
		t.Errorf("error %v does not name the failing job", ce)
	}
}

func TestKeyDistinguishesConfigs(t *testing.T) {
	a := netsim.DefaultConfig(netsim.ModelDual, 5, 10, 1)
	ka, err := Key(a)
	if err != nil {
		t.Fatal(err)
	}
	ka2, err := Key(a)
	if err != nil {
		t.Fatal(err)
	}
	if ka != ka2 {
		t.Error("key not deterministic for equal configs")
	}
	b := a
	b.Seed = 2
	kb, err := Key(b)
	if err != nil {
		t.Fatal(err)
	}
	if ka == kb {
		t.Error("different seeds share a key")
	}
	c := a
	c.WifiLoss = 0.1
	kc, err := Key(c)
	if err != nil {
		t.Fatal(err)
	}
	if ka == kc {
		t.Error("different loss configs share a key")
	}
}

func TestCacheMemoizesAcrossRuns(t *testing.T) {
	spec := testSpec()
	pool := &Pool{Workers: 4, Cache: NewCache()}
	first, err := pool.RunSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached != 0 {
		t.Errorf("fresh cache served %d jobs", first.Cached)
	}
	second, err := pool.RunSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if second.Cached != len(second.Jobs) {
		t.Errorf("warm cache served %d/%d jobs", second.Cached, len(second.Jobs))
	}
	for i := range first.Results {
		if !resultsEqual(first.Results[i], second.Results[i]) {
			t.Errorf("cached result %d diverges", i)
		}
	}
	// An overlapping sweep (superset of senders) only simulates the
	// new cells.
	wider := spec
	wider.Senders = []int{5, 15, 25}
	third, err := pool.RunSpec(wider)
	if err != nil {
		t.Fatal(err)
	}
	if third.Cached != len(second.Jobs) {
		t.Errorf("overlapping sweep reused %d jobs, want %d", third.Cached, len(second.Jobs))
	}
}

func TestDiskCachePersistsExactResults(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec()

	cache1, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	first, err := (&Pool{Workers: 4, Cache: cache1}).RunSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no cache entries written to disk")
	}

	// A second process (fresh Cache over the same dir) must reload
	// byte-identical results without simulating.
	cache2, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	second, err := (&Pool{Workers: 4, Cache: cache2}).RunSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if second.Cached != len(second.Jobs) {
		t.Errorf("disk cache served %d/%d jobs", second.Cached, len(second.Jobs))
	}
	for i := range first.Results {
		if !resultsEqual(first.Results[i], second.Results[i]) {
			t.Errorf("disk round-trip changed result %d", i)
		}
	}

	// Corrupt entries degrade to misses, never errors.
	if err := os.WriteFile(entries[0], []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	cache3, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&Pool{Workers: 4, Cache: cache3}).RunSpec(spec); err != nil {
		t.Errorf("corrupt cache entry surfaced as error: %v", err)
	}
}

func TestGridGroupsPerConfig(t *testing.T) {
	base := netsim.DefaultConfig(netsim.ModelDual, 5, 10, 1)
	base.Rate = params.HighRate
	base.Duration = 60 * time.Second
	other := base
	other.Senders = 15
	pool := &Pool{Workers: 4, Cache: NewCache()}
	groups, err := pool.Grid([]netsim.Config{base, other}, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 || len(groups[0]) != 3 || len(groups[1]) != 3 {
		t.Fatalf("bad grouping shape: %d groups", len(groups))
	}
	s, err := base.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	want, err := netsim.RunScenarioMany(s, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !resultsEqual(groups[0][i], want[i]) {
			t.Errorf("Grid rep %d diverges from RunScenarioMany", i)
		}
	}
}

func TestOutcomeCellsAndExport(t *testing.T) {
	spec := testSpec()
	pool := &Pool{Workers: 4, Cache: NewCache()}
	out, err := pool.RunSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	cells := out.Cells()
	// 4 dual points + 2 baseline points.
	if want := 6; len(cells) != want {
		t.Fatalf("cells = %d, want %d", len(cells), want)
	}
	for _, c := range cells {
		if c.Runs != spec.Runs {
			t.Errorf("cell %v has %d runs, want %d", c.Point, c.Runs, spec.Runs)
		}
		if c.Goodput.Mean < 0 || c.Goodput.Mean > 1.0001 {
			t.Errorf("cell %v goodput %v outside [0,1]", c.Point, c.Goodput.Mean)
		}
	}

	var jsonBuf bytes.Buffer
	if err := WriteJSON(&jsonBuf, out); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Jobs   int `json:"jobs"`
		Cached int `json:"cached"`
		Cells  []struct {
			Model   string  `json:"model"`
			Senders int     `json:"senders"`
			Goodput float64 `json:"goodput"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(jsonBuf.Bytes(), &doc); err != nil {
		t.Fatalf("JSON export not parseable: %v", err)
	}
	if doc.Jobs != len(out.Jobs) || len(doc.Cells) != len(cells) {
		t.Errorf("JSON export shape: jobs=%d cells=%d", doc.Jobs, len(doc.Cells))
	}

	var csvBuf bytes.Buffer
	if err := WriteCSV(&csvBuf, out); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&csvBuf).ReadAll()
	if err != nil {
		t.Fatalf("CSV export not parseable: %v", err)
	}
	if len(rows) != len(cells)+1 {
		t.Errorf("CSV rows = %d, want %d", len(rows), len(cells)+1)
	}
	if rows[0][0] != "model" {
		t.Errorf("CSV header = %v", rows[0])
	}

	tbl := out.Table("goodput", MetricGoodput)
	// One curve per burst (10, 100) plus the sensor baseline.
	if want := 3; len(tbl.Series) != want {
		t.Errorf("table series = %d, want %d", len(tbl.Series), want)
	}
	if !strings.Contains(tbl.Series[0].Label, "DualRadio-10") {
		t.Errorf("table series label %q", tbl.Series[0].Label)
	}
}

func TestParseSpecJSON(t *testing.T) {
	data := []byte(`{
		"case": "multi-hop",
		"models": ["dual", "sensor"],
		"senders": [5, 15],
		"bursts": [10, 100],
		"traffics": ["cbr", "poisson"],
		"runs": 4,
		"seed": 9,
		"duration_s": 120,
		"wifi_loss": 0.1
	}`)
	spec, err := ParseSpecJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Base.WifiProfile.Name != "Cabletron" {
		t.Errorf("multi-hop base profile = %q", spec.Base.WifiProfile.Name)
	}
	if spec.Base.Duration != 120*time.Second || spec.Base.WifiLoss != 0.1 {
		t.Errorf("base overrides not applied: %+v", spec.Base)
	}
	if spec.Runs != 4 || spec.BaseSeed != 9 {
		t.Errorf("runs/seed = %d/%d", spec.Runs, spec.BaseSeed)
	}
	if len(spec.Models) != 2 || len(spec.Traffics) != 2 {
		t.Errorf("axes = %d models, %d traffics", len(spec.Models), len(spec.Traffics))
	}
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	// dual: 2 senders x 2 bursts x 2 traffics x 4 reps = 32;
	// sensor (burst axis collapsed): 2 x 2 x 4 = 16.
	if want := 48; len(jobs) != want {
		t.Errorf("jobs = %d, want %d", len(jobs), want)
	}

	if _, err := ParseSpecJSON([]byte(`{"bogus": 1}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := ParseSpecJSON([]byte(`{"models": ["zigbee"]}`)); err == nil {
		t.Error("unknown model accepted")
	}
	if _, err := ParseSpecJSON([]byte(`{"case": "teleport"}`)); err == nil {
		t.Error("unknown case accepted")
	}
}

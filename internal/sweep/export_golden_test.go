package sweep_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"bulktx/internal/faultinject"
	"bulktx/internal/report"
	"bulktx/internal/sweep"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenTitle is the report.md title of the golden sweep.
const goldenTitle = "golden sweep"

// goldenOutcome runs testdata/golden/spec.json (2 models x 2 sender
// counts x 2 reps) on one worker with a fresh cache. The fault plan
// panics the first job, so the outcome carries one quarantined cell
// and one point summarized over a single run.
func goldenOutcome(t *testing.T) *sweep.Outcome {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "golden", "spec.json"))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := sweep.ParseSpecJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := faultinject.Parse("cell.panic:count=1")
	if err != nil {
		t.Fatal(err)
	}
	defer faultinject.Activate(plan)()
	pool := &sweep.Pool{Workers: 1, Cache: sweep.NewCache()}
	out, err := pool.RunJobsProgressContext(context.Background(), jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Errors) != 1 || out.Errors[0].Index != 0 {
		t.Fatalf("errors = %+v, want exactly job 0 quarantined", out.Errors)
	}
	return out
}

// TestExportGoldens pins results.json, results.csv and report.md of a
// partially failed sweep byte for byte. Regenerate with `go test
// ./internal/sweep -run ExportGoldens -update` after an intentional
// change to an export format.
func TestExportGoldens(t *testing.T) {
	out := goldenOutcome(t)
	for _, tc := range []struct {
		name   string
		render func() ([]byte, error)
	}{
		{"results.json", func() ([]byte, error) {
			var b bytes.Buffer
			err := sweep.WriteJSON(&b, out)
			return b.Bytes(), err
		}},
		{"results.csv", func() ([]byte, error) {
			var b bytes.Buffer
			err := sweep.WriteCSV(&b, out)
			return b.Bytes(), err
		}},
		{"report.md", func() ([]byte, error) {
			return report.SweepMarkdown(goldenTitle, out.Summary()), nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := tc.render()
			if err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", "golden", tc.name)
			if *update {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to regenerate)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s drifted from %s (run with -update if intentional)\ngot:\n%s\nwant:\n%s",
					tc.name, golden, got, want)
			}
		})
	}
}

// A point that spent energy but delivered nothing summarizes to a
// J/Kbit of +Inf, which JSON cannot carry: results.json encodes it as
// null instead of failing.
func TestWriteJSONEncodesInfiniteEnergyAsNull(t *testing.T) {
	spec, err := sweep.ParseSpecJSON([]byte(`{"models": ["sensor"], "senders": [5], "duration_s": 0.01, "rate_bps": 2000}`))
	if err != nil {
		t.Fatal(err)
	}
	out, err := (&sweep.Pool{Workers: 1}).RunSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sweep.WriteJSON(&buf, out); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Cells []map[string]any `json:"cells"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("results.json is not valid JSON: %v\n%s", err, buf.Bytes())
	}
	if len(doc.Cells) != 1 {
		t.Fatalf("got %d cells, want 1", len(doc.Cells))
	}
	v, ok := doc.Cells[0]["norm_energy_j_per_kbit"]
	if !ok || v != nil {
		t.Errorf("norm_energy_j_per_kbit = %v (present %v), want null", v, ok)
	}
}

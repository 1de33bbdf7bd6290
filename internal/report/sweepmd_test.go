package report

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"bulktx/internal/netsim"
	"bulktx/internal/params"
	"bulktx/internal/sweep"
)

func sweepOutcome(t *testing.T) *sweep.Outcome {
	t.Helper()
	base := netsim.DefaultConfig(netsim.ModelDual, 5, 10, 1)
	base.Rate = params.HighRate
	base.Duration = 30 * time.Second
	pool := &sweep.Pool{Cache: sweep.NewCache()}
	out, err := pool.RunSpec(sweep.Spec{
		Base:    base,
		Models:  []netsim.Model{netsim.ModelDual, netsim.ModelSensor},
		Senders: []int{5, 10},
		Runs:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSweepMarkdown(t *testing.T) {
	out := sweepOutcome(t)
	md := SweepMarkdown("service job abc123", out.Summary())
	text := string(md)
	for _, want := range []string{
		"# service job abc123",
		"## Goodput",
		"## Normalized energy",
		"## Cells",
		"dual-radio/s5/b10/cbr",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("markdown missing %q", want)
		}
	}
	if again := SweepMarkdown("service job abc123", out.Summary()); !bytes.Equal(md, again) {
		t.Error("SweepMarkdown is not byte-stable for the same outcome")
	}
}

package loadgen

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
)

// Counters are the deterministic outcomes of one run: with the same
// seed, profile and server shape, two invocations — even against the
// same still-running server — produce identical counters, so the
// -compare gate checks them for exact equality against the committed
// baseline.
type Counters struct {
	// Requests is every HTTP request issued, across all routes.
	Requests int `json:"requests"`
	// Submissions is the scheduled POSTs to /v1/runs and /v1/sweeps,
	// storm overflow included; Accepted counts the ones the server took
	// (202 new or 200 deduped).
	Submissions int `json:"submissions"`
	// Accepted counts submissions the server accepted.
	Accepted int `json:"accepted"`
	// DedupeAttempts is the scheduled duplicate submissions;
	// DedupeHits counts the ones answered by the already-known job id.
	DedupeAttempts int `json:"dedupe_attempts"`
	// DedupeHits counts resubmissions the content-keyed dedupe caught.
	DedupeHits int `json:"dedupe_hits"`
	// Rejected429 counts storm submissions bounced by the full queue.
	Rejected429 int `json:"rejected_429"`
	// Cancels counts accepted DELETE /v1/jobs/{id} requests.
	Cancels int `json:"cancels"`
	// SSEStreams is every event-stream connection opened.
	SSEStreams int `json:"sse_streams"`
	// SSEReplaysChecked counts streams validated against the
	// append-only history contract; SSEReplayErrors counts violations.
	SSEReplaysChecked int `json:"sse_replays_checked"`
	// SSEReplayErrors counts replay-contract violations (must be 0).
	SSEReplayErrors int `json:"sse_replay_errors"`
	// SSERudeDisconnects counts streams closed rudely mid-job on
	// purpose; the service must release each subscriber (asserted by
	// the internal/service goroutine-leak test).
	SSERudeDisconnects int `json:"sse_rude_disconnects"`
	// UnexpectedErrors counts every behavior the server got wrong —
	// bad status codes, missed dedupes, unparsable responses. Any
	// nonzero value fails the -compare gate outright.
	UnexpectedErrors int `json:"unexpected_errors"`
}

// Observed are the machine-dependent measurements of the storm's
// Retry-After handling. They are recorded, never gated: service
// throughput and latency are measured by the perfbench serve-mixed
// workload and the service's own request-duration histogram.
type Observed struct {
	// RetryAfterMinS and RetryAfterMaxS bracket the Retry-After hints
	// advertised with 429 rejections during the storm.
	RetryAfterMinS float64 `json:"retry_after_min_s"`
	// RetryAfterMaxS is the largest advertised Retry-After hint.
	RetryAfterMaxS float64 `json:"retry_after_max_s"`
	// HonoredWaitS is how long the generator actually slept honoring
	// the hint (capped by Profile.RetryAfterCapS).
	HonoredWaitS float64 `json:"honored_wait_s"`
}

// Report is the serialized outcome of one loadgen run — the schema of
// the committed BENCH_SERVE.json baseline.
type Report struct {
	// GoVersion, GOOS, GOARCH and NumCPU describe the machine that
	// produced the report.
	GoVersion string `json:"go_version"`
	// GOOS is the operating system the report was produced on.
	GOOS string `json:"goos"`
	// GOARCH is the architecture the report was produced on.
	GOARCH string `json:"goarch"`
	// NumCPU is the logical CPU count of the producing machine.
	NumCPU int `json:"num_cpu"`
	// Seed is the schedule seed; the gate requires baseline and
	// current to match.
	Seed int64 `json:"seed"`
	// Profile is the full profile the schedule was built from.
	Profile Profile `json:"profile"`
	// ScheduleSHA256 fingerprints the materialized op list; identical
	// (seed, profile, loadgen version) ⇒ identical hash.
	ScheduleSHA256 string `json:"schedule_sha256"`
	// ScheduleOps is the op count behind the hash, for quick reading.
	ScheduleOps int `json:"schedule_ops"`
	// Counters are the deterministic outcomes (gated for equality).
	Counters Counters `json:"counters"`
	// Observed are the storm's Retry-After measurements (not gated).
	Observed Observed `json:"observed"`
	// Errors details the first UnexpectedErrors/SSEReplayErrors
	// occurrences (capped; the counters are uncapped).
	Errors []string `json:"errors,omitempty"`
}

// WriteFile writes the report as indented JSON.
func (rep *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// CompareReports gates a fresh report against the committed baseline
// on behavior only: the current run must be clean (zero unexpected
// errors, zero replay violations), the schedules must be the same
// experiment (matching seed and schedule hash), and the deterministic
// counters must match exactly.
func CompareReports(w io.Writer, baseline, current *Report) error {
	if current.Counters.UnexpectedErrors > 0 || current.Counters.SSEReplayErrors > 0 {
		return fmt.Errorf("run was not clean: %d unexpected errors, %d SSE replay errors\n  %s",
			current.Counters.UnexpectedErrors, current.Counters.SSEReplayErrors,
			strings.Join(current.Errors, "\n  "))
	}
	if baseline.Seed != current.Seed {
		return fmt.Errorf("seed mismatch: baseline %d, current %d (rerun with -seed %d or regenerate the baseline)",
			baseline.Seed, current.Seed, baseline.Seed)
	}
	if baseline.ScheduleSHA256 != current.ScheduleSHA256 {
		return fmt.Errorf("schedule mismatch: baseline %s, current %s (profile or generator changed; regenerate the baseline)",
			baseline.ScheduleSHA256, current.ScheduleSHA256)
	}
	if diffs := diffCounters(baseline.Counters, current.Counters); len(diffs) > 0 {
		return fmt.Errorf("deterministic counters diverged from baseline:\n  %s", strings.Join(diffs, "\n  "))
	}
	fmt.Fprintf(w, "counters match baseline (%d requests, %d dedupe hits, %d x 429)\n",
		current.Counters.Requests, current.Counters.DedupeHits, current.Counters.Rejected429)
	return nil
}

// diffCounters lists the counter fields whose values differ, by their
// JSON names.
func diffCounters(baseline, current Counters) []string {
	var diffs []string
	bv := reflect.ValueOf(baseline)
	cv := reflect.ValueOf(current)
	t := bv.Type()
	for i := 0; i < t.NumField(); i++ {
		b, c := bv.Field(i).Int(), cv.Field(i).Int()
		if b != c {
			name, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
			diffs = append(diffs, fmt.Sprintf("%s: baseline %d, current %d", name, b, c))
		}
	}
	return diffs
}

package loadgen

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"bulktx/internal/service"
	"bulktx/internal/telemetry"
)

// maxErrorDetails caps the report's error-detail list; the counters
// keep the uncapped totals.
const maxErrorDetails = 20

// requestTimeout bounds every non-SSE request.
const requestTimeout = 30 * time.Second

// runner executes one schedule against one server.
type runner struct {
	o     Options
	ops   []Op
	c     Counters
	obs   Observed
	errs  []string
	ids   []string // job id per submission index ("" until accepted)
	cells []int    // compiled cell count per submission index
	sleep func(time.Duration)
}

// Run builds the (seed, profile) schedule and drives it against
// Options.BaseURL, returning the filled report. Behavior failures —
// wrong status codes, broken SSE replays, missed dedupes — are
// recorded in the report's counters and error details rather than
// aborting the run; only context cancellation and schedule
// construction fail it outright.
func Run(ctx context.Context, o Options) (*Report, error) {
	ops, err := BuildSchedule(o.Seed, o.Profile)
	if err != nil {
		return nil, err
	}
	if o.Client == nil {
		o.Client = &http.Client{}
	}
	if o.Log == nil {
		o.Log = telemetry.NopLogger()
	}
	if o.WaitTimeout <= 0 {
		o.WaitTimeout = 2 * time.Minute
	}
	r := &runner{
		o:     o,
		ops:   ops,
		ids:   make([]string, countSubmits(ops)),
		cells: make([]int, countSubmits(ops)),
		sleep: o.Sleep,
	}
	if r.sleep == nil {
		r.sleep = time.Sleep
	}
	phase := ""
	for i, op := range ops {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("loadgen: aborted at op %d/%d: %w", i, len(ops), err)
		}
		if op.Phase != phase {
			phase = op.Phase
			o.Log.Info("phase", "name", phase)
		}
		r.exec(ctx, op)
	}
	rep := &Report{
		GoVersion:      runtime.Version(),
		GOOS:           runtime.GOOS,
		GOARCH:         runtime.GOARCH,
		NumCPU:         runtime.NumCPU(),
		Seed:           o.Seed,
		Profile:        o.Profile,
		ScheduleSHA256: ScheduleSHA256(ops),
		ScheduleOps:    len(ops),
		Counters:       r.c,
		Observed:       r.obs,
		Errors:         r.errs,
	}
	return rep, nil
}

// countSubmits counts the schedule's submission ops.
func countSubmits(ops []Op) int {
	n := 0
	for _, op := range ops {
		if op.Kind == OpSubmit {
			n++
		}
	}
	return n
}

// fail records one behavior failure in the counters and the capped
// detail list.
func (r *runner) fail(op Op, format string, a ...any) {
	r.c.UnexpectedErrors++
	detail := fmt.Sprintf("%s[%s] ref=%d: %s", op.Kind, op.Phase, op.Ref, fmt.Sprintf(format, a...))
	if len(r.errs) < maxErrorDetails {
		r.errs = append(r.errs, detail)
	}
	r.o.Log.Warn("unexpected behavior", "op", string(op.Kind), "phase", op.Phase, "detail", detail)
}

// exec dispatches one op.
func (r *runner) exec(ctx context.Context, op Op) {
	switch op.Kind {
	case OpSubmit:
		r.submit(ctx, op, op.Body, op.Path)
	case OpResubmit:
		r.resubmit(ctx, op)
	case OpStatus:
		r.status(ctx, op)
	case OpCancel:
		r.cancel(ctx, op)
	case OpAwait, OpAwaitStarted, OpReplay, OpRude:
		r.sse(ctx, op)
	case OpHonorRetryAfter:
		r.honorRetryAfter()
	}
}

// post issues one submission POST and returns the parsed response.
func (r *runner) post(ctx context.Context, path string, body []byte) (*http.Response, []byte, error) {
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.o.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.o.Client.Do(req)
	r.c.Requests++
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp, nil, err
	}
	return resp, data, nil
}

// submit executes a scheduled submission, recording acceptance or the
// expected 429 rejection.
func (r *runner) submit(ctx context.Context, op Op, body []byte, path string) {
	r.c.Submissions++
	resp, data, err := r.post(ctx, path, body)
	if err != nil {
		r.fail(op, "POST %s: %v", path, err)
		return
	}
	if op.Want == http.StatusTooManyRequests {
		if resp.StatusCode != http.StatusTooManyRequests {
			r.fail(op, "expected 429, got %d: %s", resp.StatusCode, truncate(data))
			return
		}
		r.c.Rejected429++
		if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
			sec := float64(ra)
			if r.obs.RetryAfterMinS == 0 || sec < r.obs.RetryAfterMinS {
				r.obs.RetryAfterMinS = sec
			}
			if sec > r.obs.RetryAfterMaxS {
				r.obs.RetryAfterMaxS = sec
			}
		} else {
			r.fail(op, "429 without a parsable Retry-After header (%q)", resp.Header.Get("Retry-After"))
		}
		return
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		r.fail(op, "POST %s = %d, want 202/200: %s", path, resp.StatusCode, truncate(data))
		return
	}
	var st service.JobStatus
	if err := json.Unmarshal(data, &st); err != nil || st.ID == "" {
		r.fail(op, "undecodable submit response: %v (%s)", err, truncate(data))
		return
	}
	r.c.Accepted++
	r.ids[op.Ref] = st.ID
	r.cells[op.Ref] = st.Cells
}

// resubmit re-POSTs an earlier submission's body, expecting the
// content-keyed dedupe to answer with the original job's id.
func (r *runner) resubmit(ctx context.Context, op Op) {
	r.c.DedupeAttempts++
	src := r.findSubmit(op.Ref)
	if src == nil || r.ids[op.Ref] == "" {
		r.fail(op, "resubmit target was never accepted")
		return
	}
	resp, data, err := r.post(ctx, src.Path, src.Body)
	if err != nil {
		r.fail(op, "POST %s: %v", src.Path, err)
		return
	}
	var st service.JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		r.fail(op, "undecodable resubmit response: %v (%s)", err, truncate(data))
		return
	}
	if resp.StatusCode != http.StatusOK || !st.Deduped || st.ID != r.ids[op.Ref] {
		r.fail(op, "resubmit not deduped: status %d deduped=%v id=%s want %s",
			resp.StatusCode, st.Deduped, st.ID, r.ids[op.Ref])
		return
	}
	r.c.DedupeHits++
}

// findSubmit locates the submit op with the given submission index.
func (r *runner) findSubmit(ref int) *Op {
	for i := range r.ops {
		if r.ops[i].Kind == OpSubmit && r.ops[i].Ref == ref {
			return &r.ops[i]
		}
	}
	return nil
}

// status GETs a job's status, checking that it answers with a
// decodable JobStatus.
func (r *runner) status(ctx context.Context, op Op) {
	id := r.ids[op.Ref]
	if id == "" {
		r.fail(op, "status target was never accepted")
		return
	}
	rctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, r.o.BaseURL+"/v1/jobs/"+id, nil)
	if err != nil {
		r.fail(op, "build status request: %v", err)
		return
	}
	resp, err := r.o.Client.Do(req)
	r.c.Requests++
	if err != nil {
		r.fail(op, "GET status: %v", err)
		return
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		r.fail(op, "GET status = %d: %s", resp.StatusCode, truncate(data))
		return
	}
	var st service.JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		r.fail(op, "undecodable status: %v (%s)", err, truncate(data))
	}
}

// cancel DELETEs a job mid-flight.
func (r *runner) cancel(ctx context.Context, op Op) {
	id := r.ids[op.Ref]
	if id == "" {
		r.fail(op, "cancel target was never accepted")
		return
	}
	rctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodDelete, r.o.BaseURL+"/v1/jobs/"+id, nil)
	if err != nil {
		r.fail(op, "build cancel request: %v", err)
		return
	}
	resp, err := r.o.Client.Do(req)
	r.c.Requests++
	if err != nil {
		r.fail(op, "DELETE: %v", err)
		return
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		r.fail(op, "DELETE = %d, want 202: %s", resp.StatusCode, truncate(data))
		return
	}
	r.c.Cancels++
}

// sseEvent is one parsed Server-Sent Event.
type sseEvent struct {
	id   int
	name string
	data []byte
}

// terminalEvents are the SSE names that end a job's stream.
var terminalEvents = map[string]bool{"done": true, "failed": true, "canceled": true}

// sse runs one of the streaming behaviors: await (read to terminal),
// await-started and rude (early rude disconnects), replay (read a
// finished job's history to EOF).
func (r *runner) sse(ctx context.Context, op Op) {
	id := r.ids[op.Ref]
	if id == "" {
		r.fail(op, "sse target was never accepted")
		return
	}
	sctx, cancel := context.WithTimeout(ctx, r.o.WaitTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(sctx, http.MethodGet, r.o.BaseURL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		r.fail(op, "build events request: %v", err)
		return
	}
	resp, err := r.o.Client.Do(req)
	r.c.Requests++
	r.c.SSEStreams++
	if err != nil {
		r.fail(op, "GET events: %v", err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		r.fail(op, "GET events = %d", resp.StatusCode)
		return
	}

	var events []sseEvent
	stop := func(ev sseEvent) bool {
		switch op.Kind {
		case OpAwait:
			return terminalEvents[ev.name]
		case OpAwaitStarted:
			return ev.name == "started"
		case OpRude:
			return true
		default: // OpReplay reads to EOF
			return false
		}
	}
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 0, 64*1024), 1<<20)
	cur := sseEvent{}
	truncated := false
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			cur.id, _ = strconv.Atoi(line[len("id: "):])
		case strings.HasPrefix(line, "event: "):
			cur.name = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			cur.data = []byte(line[len("data: "):])
		case line == "" && cur.name != "":
			events = append(events, cur)
			done := stop(cur)
			cur = sseEvent{}
			if done {
				truncated = true
			}
		}
		if truncated {
			break
		}
	}
	if err := scanner.Err(); err != nil && !truncated {
		r.fail(op, "reading events: %v", err)
		return
	}

	switch op.Kind {
	case OpAwaitStarted, OpRude:
		// The early close is the point: the server must release the
		// subscriber (asserted by the service's goroutine-leak test).
		r.c.SSERudeDisconnects++
		if len(events) == 0 || events[0].id != 1 {
			r.fail(op, "stream did not replay history from event 1")
		}
	case OpAwait, OpReplay:
		r.c.SSEReplaysChecked++
		if msg := validateReplay(events, op.WantTerminal, r.cells[op.Ref], op.Kind == OpAwait || op.WantTerminal == "done"); msg != "" {
			r.c.SSEReplayErrors++
			if len(r.errs) < maxErrorDetails {
				r.errs = append(r.errs, fmt.Sprintf("%s[%s] ref=%d: %s", op.Kind, op.Phase, op.Ref, msg))
			}
		}
	}
}

// validateReplay checks the append-only history contract: ids are
// contiguous from 1, the stream opens with "queued" and ends with the
// expected terminal event, and — for completed jobs — the stream
// carries exactly one cell event per compiled cell with matching final
// counters.
func validateReplay(events []sseEvent, wantTerminal string, cells int, countCells bool) string {
	if len(events) == 0 {
		return "empty stream"
	}
	for i, ev := range events {
		if ev.id != i+1 {
			return fmt.Sprintf("event %d has id %d, want contiguous ids from 1", i, ev.id)
		}
	}
	if events[0].name != "queued" {
		return fmt.Sprintf("stream opens with %q, want queued", events[0].name)
	}
	last := events[len(events)-1]
	if last.name != wantTerminal {
		return fmt.Sprintf("stream ends with %q, want %q", last.name, wantTerminal)
	}
	if wantTerminal != "done" || !countCells {
		return ""
	}
	cellEvents := 0
	for _, ev := range events {
		if ev.name == "cell" {
			cellEvents++
		}
	}
	if cellEvents != cells {
		return fmt.Sprintf("replay carries %d cell events, want %d", cellEvents, cells)
	}
	var final struct {
		// CellsDone mirrors the done event's final progress counter.
		CellsDone int `json:"cells_done"`
	}
	if err := json.Unmarshal(last.data, &final); err != nil {
		return fmt.Sprintf("undecodable done event: %v", err)
	}
	if final.CellsDone != cells {
		return fmt.Sprintf("done event reports %d cells, want %d", final.CellsDone, cells)
	}
	return ""
}

// honorRetryAfter sleeps the largest advertised Retry-After, capped by
// the profile, before the post-storm probe.
func (r *runner) honorRetryAfter() {
	wait := r.obs.RetryAfterMaxS
	if wait > r.o.Profile.RetryAfterCapS {
		wait = r.o.Profile.RetryAfterCapS
	}
	if wait <= 0 {
		return
	}
	r.obs.HonoredWaitS = wait
	r.o.Log.Info("honoring Retry-After", "wait_s", wait, "advertised_max_s", r.obs.RetryAfterMaxS)
	r.sleep(time.Duration(wait * float64(time.Second)))
}

// truncate bounds response bodies embedded in error details.
func truncate(data []byte) string {
	const max = 200
	s := strings.TrimSpace(string(data))
	if len(s) > max {
		return s[:max] + "..."
	}
	return s
}

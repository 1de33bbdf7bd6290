package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"slices"
	"sync"
	"time"

	"bulktx/internal/netsim"
	"bulktx/internal/sweep"
	"bulktx/internal/trace"
)

// Job kinds.
const (
	// kindRun is a single-scenario submission (POST /v1/runs).
	kindRun = "run"
	// kindSweep is a grid submission (POST /v1/sweeps).
	kindSweep = "sweep"
)

// jobState is a job's lifecycle stage.
type jobState string

// Job lifecycle states, terminal last.
const (
	jobQueued   jobState = "queued"
	jobRunning  jobState = "running"
	jobDone     jobState = "done"
	jobFailed   jobState = "failed"
	jobCanceled jobState = "canceled"
)

// errJobCanceled is the cancellation cause a DELETE request injects
// into a running job's context, distinguishing an operator cancel from
// a deadline or an internal failure.
var errJobCanceled = errors.New("job canceled")

// maxCellErrorDetails caps how many per-cell errors a job status
// carries, so a pathologically failing mega-sweep cannot balloon every
// status poll; CellsFailed always counts the full total.
const maxCellErrorDetails = 100

// job is one accepted submission: a compiled job list plus its
// execution state and event stream.
type job struct {
	id   string
	kind string
	// cells is the length of the compiled job list.
	cells int
	// traced is the cell that a run job's trace.jsonl re-simulates.
	traced sweep.Job
	stream *stream

	// rawDoc is the submitted spec document (lowered sweep.SpecDoc
	// JSON) as journaled for crash recovery; nil when the service runs
	// without a state dir.
	rawDoc json.RawMessage
	// deadline bounds the job's execution wall-clock (0 = unbounded).
	deadline time.Duration

	// submittedAt is stamped once at acceptance and never mutated, so
	// it is readable without the lock.
	submittedAt time.Time

	mu          sync.Mutex
	state       jobState
	startedAt   time.Time // execution start (zero while queued)
	finishedAt  time.Time // terminal transition (zero until done/failed/canceled)
	errText     string
	cellsDone   int
	cellsCached int
	cellsFailed int
	cellErrs    []CellErrorDetail // capped at maxCellErrorDetails
	cancel      context.CancelCauseFunc
	// jobs is the compiled job list, dropped once the job is terminal:
	// nothing reads it after execution, and it holds hundreds of bytes
	// per cell.
	jobs []sweep.Job
	// summary and resultsJSON are a done job's results: the per-point
	// summaries that results.csv and report.md render from, and
	// results.json rendered once at completion. The per-run results
	// are not kept, so a retained job's size does not grow with the
	// number of packets its runs delivered.
	summary     *sweep.Summary
	resultsJSON []byte
}

// CellErrorDetail is the serialized record of one quarantined cell of
// a partially failed job.
type CellErrorDetail struct {
	// Index is the cell's position in the job's compiled job list.
	Index int `json:"index"`
	// Point identifies the grid cell; Rep is the seeded repetition.
	Point string `json:"point"`
	// Rep is the repetition index within the point.
	Rep int `json:"rep"`
	// Error is the cell's failure.
	Error string `json:"error"`
}

// JobStatus is the serialized status of one job, returned by the
// submit, status and list endpoints.
type JobStatus struct {
	// ID is the content-keyed job identifier.
	ID string `json:"id"`
	// Kind is "run" or "sweep".
	Kind string `json:"kind"`
	// State is queued, running, done, failed or canceled.
	State string `json:"state"`
	// Error carries the failure of a failed job.
	Error string `json:"error,omitempty"`
	// Cells is the number of simulations the spec compiled to;
	// CellsDone counts resolved ones and CellsCached how many of those
	// were served without simulating.
	Cells       int `json:"cells"`
	CellsDone   int `json:"cells_done"`
	CellsCached int `json:"cells_cached"`
	// CellsFailed counts quarantined cells (their simulation failed or
	// panicked); the job still completes with the surviving cells.
	CellsFailed int `json:"cells_failed,omitempty"`
	// CellErrors details the quarantined cells (capped at 100 entries;
	// CellsFailed is the uncapped total).
	CellErrors []CellErrorDetail `json:"cell_errors,omitempty"`
	// CellErrorsTruncated marks that more cells failed than CellErrors
	// lists: the detail list hit its cap and was cut off, while
	// CellsFailed kept counting.
	CellErrorsTruncated bool `json:"cell_errors_truncated,omitempty"`
	// DeadlineS is the job's execution deadline in seconds (absent
	// when unbounded).
	DeadlineS float64 `json:"deadline_s,omitempty"`
	// Deduped marks a submission answered by an existing job with the
	// same content key (submit responses only).
	Deduped bool `json:"deduped,omitempty"`
	// Artifacts lists the downloadable artifact names of a completed
	// job.
	Artifacts []string `json:"artifacts,omitempty"`
	// Timings is the job's wall-clock phase breakdown, growing as the
	// job advances through its lifecycle.
	Timings *JobTimings `json:"timings,omitempty"`
}

// JobTimings attributes a job's wall-clock to its lifecycle phases,
// so a slow sweep is diagnosable as queueing vs. execution without
// scraping histograms: submitted→started is time spent waiting for an
// executor, started→finished is time spent simulating (and exporting).
type JobTimings struct {
	// SubmittedAt is when the service accepted the job.
	SubmittedAt time.Time `json:"submitted_at"`
	// StartedAt is when an executor picked the job up; absent while
	// the job is queued.
	StartedAt *time.Time `json:"started_at,omitempty"`
	// FinishedAt is when the job reached done or failed; absent
	// before that.
	FinishedAt *time.Time `json:"finished_at,omitempty"`
	// QueueWaitS is StartedAt-SubmittedAt in seconds, present once
	// the job started.
	QueueWaitS float64 `json:"queue_wait_s,omitempty"`
	// ExecutionS is FinishedAt-StartedAt in seconds, present once the
	// job finished.
	ExecutionS float64 `json:"execution_s,omitempty"`
}

// timingsLocked snapshots the phase breakdown; j.mu must be held.
func (j *job) timingsLocked() *JobTimings {
	t := &JobTimings{SubmittedAt: j.submittedAt}
	if !j.startedAt.IsZero() {
		started := j.startedAt
		t.StartedAt = &started
		t.QueueWaitS = started.Sub(j.submittedAt).Seconds()
	}
	if !j.finishedAt.IsZero() {
		finished := j.finishedAt
		t.FinishedAt = &finished
		if !j.startedAt.IsZero() {
			t.ExecutionS = finished.Sub(j.startedAt).Seconds()
		}
	}
	return t
}

// status snapshots the job for serialization.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID: j.id, Kind: j.kind, State: string(j.state), Error: j.errText,
		Cells: j.cells, CellsDone: j.cellsDone, CellsCached: j.cellsCached,
		CellsFailed: j.cellsFailed, CellErrors: j.cellErrs,
		CellErrorsTruncated: j.cellsFailed > len(j.cellErrs),
		DeadlineS:           j.deadline.Seconds(),
		Timings:             j.timingsLocked(),
	}
	if j.state == jobDone {
		st.Artifacts = []string{"results.json", "results.csv", "report.md"}
		if j.kind == kindRun {
			st.Artifacts = append(st.Artifacts, "trace.jsonl")
		}
	}
	return st
}

// Server is the HTTP simulation service: a bounded job queue over one
// shared sweep pool and cache, plus the route handlers. Build one with
// New; it implements http.Handler.
type Server struct {
	pool       *sweep.Pool
	queueLimit int
	jobWorkers int
	maxCells   int
	maxJobs    int
	retryAfter time.Duration
	log        *slog.Logger
	hist       *histograms
	journal    *journal

	mu     sync.Mutex
	closed bool
	jobs   map[string]*job
	order  []*job
	// queue holds the jobs waiting for an executor, oldest first. A
	// queued job that is canceled leaves it at once, so admission, the
	// jobs_queued gauge and the Retry-After backlog all read
	// len(queue). ready wakes executors when a job is queued or Close
	// begins.
	queue     []*job
	ready     *sync.Cond
	executors int // started so far, up to jobWorkers
	wg        sync.WaitGroup

	counters counters
	drains   drainStats

	// cacheErrOnce and journalErrOnce gate the first-occurrence error
	// logs of the degradation paths (every occurrence still counts in
	// the metrics).
	cacheErrOnce, journalErrOnce sync.Once

	// testGate, when non-nil, blocks each job between dequeue and
	// execution — test-only scaffolding for deterministic queue-full
	// and drain scenarios.
	testGate func(*job)
}

// submitOutcome classifies what adopt did with a submission.
type submitOutcome int

// Submission outcomes.
const (
	submitNew submitOutcome = iota
	submitDeduped
	submitFull
	submitClosed
)

// jobID derives the content-keyed identifier of a submission: a hash
// over the kind and the compiled job list, so identical specs share a
// job no matter how their JSON was spelled.
func jobID(kind string, jobs []sweep.Job) (string, error) {
	key, err := sweep.JobsKey(jobs)
	if err != nil {
		return "", err
	}
	h := sha256.Sum256([]byte(kind + ":" + key))
	return hex.EncodeToString(h[:8]), nil
}

// currentState snapshots the job's lifecycle stage.
func (j *job) currentState() jobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// terminal reports whether the state is a lifecycle end.
func (st jobState) terminal() bool {
	return st == jobDone || st == jobFailed || st == jobCanceled
}

// adopt resolves a compiled submission against the job store: an
// existing queued/running/done job with the same content key answers
// the submission (dedupe); a failed or canceled one is replaced so the
// spec can be retried; otherwise a new job is enqueued — unless the
// queue is full or the service is draining. journalize records the
// acceptance in the job journal (recovery resubmissions skip it: their
// submitted record already survives in the compacted journal).
func (s *Server) adopt(kind string, jobs []sweep.Job, rawDoc json.RawMessage, deadline time.Duration, journalize bool) (*job, submitOutcome) {
	id, err := jobID(kind, jobs)
	if err != nil {
		// Key derivation only fails on unencodable configs, which
		// Spec.Jobs already validated; treat as a full queue to stay
		// safe rather than crash.
		return nil, submitFull
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	prev := s.jobs[id]
	if prev != nil {
		if st := prev.currentState(); st != jobFailed && st != jobCanceled {
			s.counters.deduped.Add(1)
			return prev, submitDeduped
		}
	}
	if s.closed {
		return nil, submitClosed
	}
	if len(s.queue) >= s.queueLimit {
		return nil, submitFull
	}
	j := &job{
		id: id, kind: kind, cells: len(jobs), jobs: jobs, state: jobQueued,
		rawDoc: rawDoc, deadline: deadline,
		stream: newStream(), submittedAt: time.Now(),
	}
	if kind == kindRun {
		j.traced = jobs[0]
	}
	j.stream.publish("queued", struct {
		// ID and Kind identify the job; Cells is its simulation count.
		ID    string `json:"id"`
		Kind  string `json:"kind"`
		Cells int    `json:"cells"`
	}{j.id, j.kind, j.cells})
	s.jobs[id] = j
	if prev != nil {
		// Retrying a failed or canceled spec replaces its job in the
		// listing; the old stream already closed with its outcome.
		for i, o := range s.order {
			if o == prev {
				s.order[i] = j
				break
			}
		}
	} else {
		s.order = append(s.order, j)
		s.evictLocked()
	}
	s.counters.submitted.Add(1)
	if journalize {
		s.journal.append(journalRecord{
			Op: opSubmitted, ID: j.id, Kind: j.kind,
			Doc: j.rawDoc, DeadlineS: j.deadline.Seconds(),
		})
	}
	s.queue = append(s.queue, j)
	s.ready.Signal()
	// Executors start on demand and then live until Close: every queued
	// job starts one until jobWorkers exist, so a queued job never
	// waits while an executor it could have had is missing.
	if s.executors < s.jobWorkers {
		s.executors++
		s.wg.Add(1)
		go s.executor()
	}
	s.log.Info("job queued", "job", j.id, "kind", j.kind, "cells", j.cells)
	return j, submitNew
}

// evictLocked drops the oldest terminal jobs once the store exceeds
// its retention cap, so a long-lived service does not accumulate every
// outcome ever computed. Queued and running jobs are never evicted
// (their number is already bounded by the queue and the executors).
// Called with s.mu held.
func (s *Server) evictLocked() {
	for len(s.order) > s.maxJobs {
		evicted := false
		for i, j := range s.order {
			if !j.currentState().terminal() {
				continue
			}
			delete(s.jobs, j.id)
			s.order = append(s.order[:i], s.order[i+1:]...)
			evicted = true
			break
		}
		if !evicted {
			return
		}
	}
}

// recoverPending resubmits the journal's unfinished jobs after a
// restart: each record recompiles through the same validation path as
// a live submission and re-enters the queue under its original id, so
// clients polling a pre-crash job id see it progress to completion.
// Records that no longer compile or no longer produce the same id
// (cache-schema or validation drift across versions) are retired with
// a dropped record instead of replaying forever.
func (s *Server) recoverPending(pending []journalRecord) {
	for _, rec := range pending {
		var doc sweep.SpecDoc
		drop := func(why string, err error) {
			s.log.Warn("journal record dropped", "job", rec.ID, "reason", why, "error", err)
			s.journal.append(journalRecord{Op: opDropped, ID: rec.ID})
		}
		if err := json.Unmarshal(rec.Doc, &doc); err != nil {
			drop("undecodable spec document", err)
			continue
		}
		spec, err := doc.Spec()
		if err != nil {
			drop("spec no longer validates", err)
			continue
		}
		jobs, err := spec.Jobs()
		if err != nil || len(jobs) == 0 {
			drop("spec no longer compiles", err)
			continue
		}
		id, err := jobID(rec.Kind, jobs)
		if err != nil || id != rec.ID {
			// The spec now keys differently (schema drift). Retire the
			// old id and adopt under the new one, journaled as a fresh
			// submission.
			drop("content key changed", err)
			s.adopt(rec.Kind, jobs, rec.Doc, time.Duration(rec.DeadlineS*float64(time.Second)), true)
			continue
		}
		j, outcome := s.adopt(rec.Kind, jobs, rec.Doc, time.Duration(rec.DeadlineS*float64(time.Second)), false)
		if outcome != submitNew {
			drop("not adoptable after restart", nil)
			continue
		}
		s.counters.recovered.Add(1)
		s.log.Info("job recovered", "job", j.id, "kind", j.kind, "cells", j.cells)
	}
}

// queuedJobs is the live queue depth.
func (s *Server) queuedJobs() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(len(s.queue))
}

// executor runs queued jobs, oldest first, until Close has begun and
// the queue is empty.
func (s *Server) executor() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.ready.Wait()
		}
		if len(s.queue) == 0 {
			s.mu.Unlock()
			return
		}
		j := s.queue[0]
		s.queue = slices.Delete(s.queue, 0, 1)
		s.mu.Unlock()
		s.runJob(j)
	}
}

// cellEvent is the SSE payload of one resolved cell.
type cellEvent struct {
	// Index, Point and Rep identify the resolved job within the sweep.
	Index int    `json:"index"`
	Point string `json:"point"`
	Rep   int    `json:"rep"`
	// Cached marks cells served without simulating.
	Cached bool `json:"cached"`
	// Error marks a quarantined cell: it failed and the sweep continued
	// without it.
	Error string `json:"error,omitempty"`
	// DurationS is the cell's simulation wall-clock in seconds; 0 for
	// cached cells, which never simulate.
	DurationS float64 `json:"duration_s"`
	// Done and Total are the job's progress counters.
	Done  int `json:"done"`
	Total int `json:"total"`
}

// finish moves the job to a terminal state under its lock and stamps
// the transition, attaching a done job's results. Callers count,
// journal and log the transition first, so a client that sees the
// terminal state also sees it in /metrics and the logs, and can fetch
// the artifacts.
func (j *job) finish(state jobState, errText string, summary *sweep.Summary, resultsJSON []byte) {
	j.mu.Lock()
	j.state = state
	j.errText = errText
	j.summary, j.resultsJSON = summary, resultsJSON
	j.jobs = nil
	j.finishedAt = time.Now()
	j.mu.Unlock()
}

// runJob executes one job on the shared pool, streaming per-cell
// progress and publishing the terminal event. Execution runs under a
// per-job context so DELETE and the job's deadline can unwind it
// between cells.
func (s *Server) runJob(j *job) {
	s.mu.Lock()
	gate := s.testGate
	s.mu.Unlock()
	if gate != nil {
		gate(j)
	}

	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	if j.deadline > 0 {
		var cancelT context.CancelFunc
		ctx, cancelT = context.WithTimeoutCause(ctx, j.deadline,
			fmt.Errorf("job deadline (%s) exceeded: %w", j.deadline, context.DeadlineExceeded))
		defer cancelT()
	}

	start := time.Now()
	j.mu.Lock()
	if j.state == jobCanceled {
		// Canceled between dequeue and here: already terminal, nothing
		// to run.
		j.mu.Unlock()
		return
	}
	j.state = jobRunning
	j.startedAt = start
	j.cancel = cancel
	jobs := j.jobs
	j.mu.Unlock()
	queueWait := start.Sub(j.submittedAt)
	s.hist.queueWait.ObserveDuration(queueWait)
	s.counters.busy.start(start)
	s.log.Info("job running", "job", j.id, "kind", j.kind,
		"cells", j.cells, "queue_wait_s", queueWait.Seconds())
	j.stream.publish("started", struct {
		// Cells is the number of simulations about to run.
		Cells int `json:"cells"`
	}{j.cells})

	outcome, err := s.pool.RunJobsProgressContext(ctx, jobs, func(u sweep.JobUpdate) {
		if !u.Cached && u.Err == nil {
			s.hist.cellSim.ObserveDuration(u.Duration)
		}
		ev := cellEvent{
			Index: u.Index, Point: u.Point.String(), Rep: u.Rep,
			Cached:    u.Cached,
			DurationS: u.Duration.Seconds(),
			Done:      u.Done, Total: u.Total,
		}
		j.mu.Lock()
		j.cellsDone = u.Done
		if u.Cached {
			j.cellsCached++
		}
		if u.Err != nil {
			ev.Error = u.Err.Error()
			j.cellsFailed++
			if len(j.cellErrs) < maxCellErrorDetails {
				j.cellErrs = append(j.cellErrs, CellErrorDetail{
					Index: u.Index, Point: u.Point.String(), Rep: u.Rep,
					Error: u.Err.Error(),
				})
			}
		}
		j.mu.Unlock()
		if u.Err != nil {
			s.counters.cellsFailed.Add(1)
		}
		j.stream.publish("cell", ev)
	})

	end := time.Now()
	s.counters.busy.stop(end)
	execution := end.Sub(start)
	s.hist.execution.ObserveDuration(execution)

	if err != nil {
		if errors.Is(err, errJobCanceled) {
			s.finishCanceled(j, execution)
			return
		}
		s.finishFailed(j, err.Error(), execution)
		return
	}

	j.mu.Lock()
	failedCells, cached := j.cellsFailed, j.cellsCached
	j.mu.Unlock()
	if failedCells > 0 && failedCells == j.cells {
		// Nothing survived: report the job itself as failed, with the
		// per-cell detail still attached for diagnosis.
		msg := fmt.Sprintf("all %d cells failed; first: %s", failedCells, outcome.Errors[0].Error())
		s.finishFailed(j, msg, execution)
		return
	}
	summary := outcome.Summary()
	var resultsJSON bytes.Buffer
	if err := summary.WriteJSON(&resultsJSON); err != nil {
		s.finishFailed(j, err.Error(), execution)
		return
	}

	s.counters.cellsCached.Add(int64(cached))
	s.counters.cellsSimulated.Add(int64(j.cells - cached - failedCells))
	s.counters.done.Add(1)
	s.drains.record(time.Now())
	s.journal.append(journalRecord{Op: opDone, ID: j.id})
	s.log.Info("job done", "job", j.id, "kind", j.kind,
		"execution_s", execution.Seconds(),
		"cells", j.cells, "cells_cached", cached, "cells_failed", failedCells)
	j.finish(jobDone, "", summary, resultsJSON.Bytes())
	j.stream.publish("done", struct {
		// CellsDone, CellsCached and CellsFailed are the final progress
		// counters; a nonzero CellsFailed marks a partial completion.
		CellsDone   int `json:"cells_done"`
		CellsCached int `json:"cells_cached"`
		CellsFailed int `json:"cells_failed,omitempty"`
	}{j.cells, cached, failedCells})
	j.stream.close()
}

// finishFailed finalizes a job that failed outright or lost every
// cell.
func (s *Server) finishFailed(j *job, msg string, execution time.Duration) {
	s.counters.failed.Add(1)
	s.drains.record(time.Now())
	s.journal.append(journalRecord{Op: opFailed, ID: j.id, Error: msg})
	s.log.Error("job failed", "job", j.id, "kind", j.kind,
		"execution_s", execution.Seconds(), "error", msg)
	j.finish(jobFailed, msg, nil, nil)
	j.stream.publish("failed", apiError{Error: msg})
	j.stream.close()
}

// finishCanceled finalizes a DELETE-canceled job that was unwound
// mid-execution.
func (s *Server) finishCanceled(j *job, execution time.Duration) {
	s.counters.canceled.Add(1)
	s.drains.record(time.Now())
	s.journal.append(journalRecord{Op: opCanceled, ID: j.id})
	s.log.Info("job canceled", "job", j.id, "kind", j.kind,
		"execution_s", execution.Seconds())
	j.finish(jobCanceled, "", nil, nil)
	j.stream.publish("canceled", struct {
		// ID names the canceled job.
		ID string `json:"id"`
	}{j.id})
	j.stream.close()
}

// cancelJob implements DELETE: queued jobs terminate immediately,
// running jobs get their context canceled and unwind between cells,
// terminal jobs answer false (nothing to cancel).
func (s *Server) cancelJob(j *job) (accepted bool) {
	s.mu.Lock()
	j.mu.Lock()
	state, cancel := j.state, j.cancel
	if state == jobQueued {
		// Leave the queue at once, so the slot reopens for the next
		// submission. A job an executor already took is not there;
		// runJob skips it.
		if i := slices.Index(s.queue, j); i >= 0 {
			s.queue = slices.Delete(s.queue, i, i+1)
		}
		j.state = jobCanceled
		j.jobs = nil
		j.finishedAt = time.Now()
	}
	j.mu.Unlock()
	s.mu.Unlock()
	switch state {
	case jobDone, jobFailed, jobCanceled:
		return false
	case jobRunning:
		if cancel != nil {
			cancel(errJobCanceled)
		}
		s.log.Info("job cancel requested", "job", j.id)
		return true
	default: // queued
		s.counters.canceled.Add(1)
		s.drains.record(time.Now())
		s.journal.append(journalRecord{Op: opCanceled, ID: j.id})
		s.log.Info("job canceled", "job", j.id, "kind", j.kind, "while", "queued")
		j.stream.publish("canceled", struct {
			// ID names the canceled job.
			ID string `json:"id"`
		}{j.id})
		j.stream.close()
		return true
	}
}

// Close drains the service: no new submissions are accepted (503),
// already-accepted jobs — queued and running — finish, then the
// executors exit and the journal closes. The context bounds the wait.
func (s *Server) Close(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.ready.Broadcast()
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.journal.close()
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: drain interrupted: %w", ctx.Err())
	}
}

// serveTrace renders the trace.jsonl artifact of a run job: the job's
// scenario re-simulated at the base seed with tracing on (packet
// provenance + state transitions), exported through the sweep trace
// exporters. The run is deterministic, so it is re-simulated on every
// request and nothing is kept on the job: a traced run of a paper-grid
// scenario holds megabytes. Sweep jobs do not carry traces — tracing
// every grid cell would dwarf the sweep itself.
func (s *Server) serveTrace(w http.ResponseWriter, j *job) {
	if j.kind != kindRun {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("trace.jsonl is only available for run jobs (job %s is a %s)", j.id, j.kind))
		return
	}
	runs, err := traceRuns(j)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	sweep.WriteTraceJSONL(w, runs) //nolint:errcheck // streaming to a gone client
}

// traceRuns executes the traced repetition behind serveTrace.
func traceRuns(j *job) ([]sweep.TracedRun, error) {
	sc, err := j.traced.Config.Scenario(netsim.WithTrace(trace.Options{Packets: true, States: true}))
	if err != nil {
		return nil, fmt.Errorf("building traced scenario: %w", err)
	}
	res, err := netsim.RunScenario(sc)
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	return []sweep.TracedRun{{Label: j.traced.Point.String(), Result: res}}, nil
}

package service

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"bulktx/internal/telemetry"
)

// counters are the service's Prometheus-exported counters and gauges.
// All fields are atomically updated; /metrics renders a consistent-
// enough snapshot (Prometheus semantics do not require cross-metric
// atomicity).
type counters struct {
	// submitted counts accepted new jobs; deduped counts submissions
	// answered by an existing job; rejected counts 429 backpressure
	// responses.
	submitted, deduped, rejected atomic.Int64
	// done, failed and canceled count terminal jobs.
	done, failed, canceled atomic.Int64
	// recovered counts journaled jobs resubmitted after a restart.
	recovered atomic.Int64
	// cellsSimulated counts simulations actually executed;
	// cellsCached counts cells served from the cache or an intra-job
	// duplicate.
	cellsSimulated, cellsCached atomic.Int64
	// cellsFailed counts quarantined cells.
	cellsFailed atomic.Int64
	// cacheWriteErrors counts disk-cache writes that failed (the cache
	// degrades to its memory tier); journalErrors counts journal
	// appends that failed (jobs keep running, durability degrades).
	cacheWriteErrors, journalErrors atomic.Int64
	// busy counts executing jobs and the wall-clock time during which
	// at least one was executing.
	busy busyClock
}

// busyClock tracks the running-jobs gauge and the service's busy time,
// the denominator of the cells-per-second gauge. Busy time is wall
// time with at least one job executing: a busy period opens when the
// first job starts and closes when the last one ends, so overlapping
// jobs share their wall time instead of each adding it.
type busyClock struct {
	mu      sync.Mutex
	running int64
	since   time.Time     // start of the open busy period (running > 0)
	closed  time.Duration // length of the busy periods already closed
}

// start counts a job starting at now.
func (b *busyClock) start(now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.running == 0 {
		b.since = now
	}
	b.running++
}

// stop counts a job ending at now.
func (b *busyClock) stop(now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.running--
	if b.running == 0 {
		b.closed += now.Sub(b.since)
	}
}

// read reports the number of executing jobs and the busy time up to
// now, an open busy period included.
func (b *busyClock) read(now time.Time) (running int64, busy time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	busy = b.closed
	if b.running > 0 {
		busy += now.Sub(b.since)
	}
	return b.running, busy
}

// Adaptive Retry-After tuning.
const (
	// drainWindow is how far back the drain-rate estimate looks.
	drainWindow = 5 * time.Minute
	// maxRetryAfter caps the advertised backoff so a stalled service
	// never tells clients to go away for hours.
	maxRetryAfter = 60 * time.Second
)

// drainStats tracks recent terminal job transitions, the basis of the
// adaptive Retry-After hint: how fast the service has actually been
// draining its queue lately.
type drainStats struct {
	mu     sync.Mutex
	stamps []time.Time
}

// record stamps one terminal transition.
func (d *drainStats) record(t time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stamps = append(d.stamps, t)
	d.trimLocked(t)
}

// trimLocked drops stamps older than the window; d.mu must be held.
func (d *drainStats) trimLocked(now time.Time) {
	cut := now.Add(-drainWindow)
	i := 0
	for i < len(d.stamps) && d.stamps[i].Before(cut) {
		i++
	}
	d.stamps = d.stamps[i:]
}

// rate estimates the recent drain rate in jobs per second; 0 when no
// job finished inside the window (no evidence to extrapolate from).
func (d *drainStats) rate(now time.Time) float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.trimLocked(now)
	if len(d.stamps) == 0 {
		return 0
	}
	elapsed := now.Sub(d.stamps[0])
	if elapsed < time.Second {
		elapsed = time.Second
	}
	return float64(len(d.stamps)) / elapsed.Seconds()
}

// retryAfterHint computes the 429 Retry-After value: the estimated
// time to drain the current backlog at the recently observed rate,
// clamped between the configured floor and maxRetryAfter. With no
// recent completions to extrapolate from, the floor is advertised.
func (s *Server) retryAfterHint(now time.Time) time.Duration {
	hint := s.retryAfter
	if rate := s.drains.rate(now); rate > 0 {
		running, _ := s.counters.busy.read(now)
		backlog := s.queuedJobs() + running + 1
		if est := time.Duration(float64(backlog) / rate * float64(time.Second)); est > hint {
			hint = est
		}
	}
	if hint > maxRetryAfter {
		hint = maxRetryAfter
	}
	return hint
}

// Latency bucket layouts, in seconds. Request buckets start sub-ms
// (status polls are in-memory map reads); phase buckets stretch to 10
// minutes (queue waits and sweep executions are as long as the grid);
// cell buckets start at 100us (a quick-scale cell simulates in well
// under a millisecond).
var (
	httpDurationBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
		0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60}
	jobPhaseBuckets = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5,
		1, 5, 10, 30, 60, 300, 600}
	cellDurationBuckets = []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025,
		0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
)

// histograms are the service's latency histogram families — the
// regression-gate source of truth for where time goes, replacing the
// single cells-per-second gauge as the primary performance signal.
type histograms struct {
	// httpDuration is request latency partitioned by route pattern.
	httpDuration *telemetry.HistogramVec
	// queueWait spans job acceptance to execution start; execution
	// spans execution start to the terminal state. Together they
	// attribute a slow job to queueing vs. running.
	queueWait, execution *telemetry.Histogram
	// cellSim is per-cell simulation wall-clock, simulated cells only
	// (cached cells never run, so they would only flatten the
	// distribution).
	cellSim *telemetry.Histogram
}

// newHistograms builds the empty histogram families.
func newHistograms() *histograms {
	return &histograms{
		httpDuration: telemetry.NewHistogramVec("route", httpDurationBuckets),
		queueWait:    telemetry.NewHistogram(jobPhaseBuckets),
		execution:    telemetry.NewHistogram(jobPhaseBuckets),
		cellSim:      telemetry.NewHistogram(cellDurationBuckets),
	}
}

// handleMetrics renders the Prometheus text exposition format. The
// output is pinned by the exposition-lint test
// (TestMetricsExpositionLints), so every family stays well-formed.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	c := &s.counters
	running, busy := c.busy.read(time.Now())
	stats := s.pool.Cache.Stats()
	emit := func(name, kind, help string, value float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %g\n", name, help, name, kind, name, value)
	}
	telemetry.WriteBuildInfoMetric(w)
	emit("bulktx_jobs_submitted_total", "counter",
		"Jobs accepted and enqueued.", float64(c.submitted.Load()))
	emit("bulktx_jobs_deduped_total", "counter",
		"Submissions answered by an existing job with the same content key.", float64(c.deduped.Load()))
	emit("bulktx_jobs_rejected_total", "counter",
		"Submissions rejected with 429 because the queue was full.", float64(c.rejected.Load()))
	emit("bulktx_jobs_done_total", "counter",
		"Jobs completed successfully.", float64(c.done.Load()))
	emit("bulktx_jobs_failed_total", "counter",
		"Jobs that ended in failure.", float64(c.failed.Load()))
	emit("bulktx_jobs_canceled_total", "counter",
		"Jobs canceled via DELETE before completing.", float64(c.canceled.Load()))
	emit("bulktx_jobs_recovered_total", "counter",
		"Journaled jobs resubmitted after a service restart.", float64(c.recovered.Load()))
	emit("bulktx_jobs_queued", "gauge",
		"Jobs waiting for an executor.", float64(s.queuedJobs()))
	emit("bulktx_jobs_running", "gauge",
		"Jobs currently executing.", float64(running))
	emit("bulktx_cells_simulated_total", "counter",
		"Grid cells actually simulated.", float64(c.cellsSimulated.Load()))
	emit("bulktx_cells_cached_total", "counter",
		"Grid cells served from the cache or an intra-job duplicate.", float64(c.cellsCached.Load()))
	emit("bulktx_cells_failed_total", "counter",
		"Grid cells quarantined after their simulation failed.", float64(c.cellsFailed.Load()))
	emit("bulktx_cache_write_errors_total", "counter",
		"Disk cache writes that failed; results continued in memory only.", float64(c.cacheWriteErrors.Load()))
	emit("bulktx_journal_write_errors_total", "counter",
		"Job journal appends that failed; jobs continued, durability degraded.", float64(c.journalErrors.Load()))
	emit("bulktx_result_cache_bytes", "gauge",
		"Accounted footprint of the result cache's memory tier.", float64(stats.Bytes))
	emit("bulktx_result_cache_entries", "gauge",
		"Results held in the result cache's memory tier.", float64(stats.Entries))
	emit("bulktx_result_cache_evictions_total", "counter",
		"Results evicted from the memory tier to stay within its budget.", float64(stats.Evictions))
	// The throughput gauge only exists once busy time has accrued:
	// cache-only jobs complete in ~zero wall-clock, and dividing by
	// that would report 0 cells/sec right after the service served
	// thousands of cached cells. Cached volume is already visible in
	// bulktx_cells_cached_total; the latency histograms below are the
	// finer-grained signal either way.
	if busy > 0 {
		perSec := float64(c.cellsSimulated.Load()+c.cellsCached.Load()) / busy.Seconds()
		emit("bulktx_cells_per_sec", "gauge",
			"Cells resolved per second of wall-clock with at least one job executing; absent until such time has accrued.", perSec)
	}
	telemetry.WriteHistogramVec(w, "bulktx_http_request_duration_seconds",
		"HTTP request latency by route pattern, SSE streams measured to stream end.", s.hist.httpDuration)
	telemetry.WriteHistogram(w, "bulktx_job_queue_wait_seconds",
		"Wall-clock from job acceptance to execution start.", s.hist.queueWait)
	telemetry.WriteHistogram(w, "bulktx_job_execution_seconds",
		"Wall-clock from execution start to the job's terminal state.", s.hist.execution)
	telemetry.WriteHistogram(w, "bulktx_cell_simulation_seconds",
		"Per-cell simulation wall-clock, simulated cells only (cached cells never run).", s.hist.cellSim)
}

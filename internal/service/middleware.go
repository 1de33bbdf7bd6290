package service

import (
	"net/http"
	"sync"
	"time"

	"bulktx/internal/telemetry"
)

// jobIDHeader carries the affected job's content-keyed id on
// submission responses, so clients (and the access logger) can
// correlate a request with its job without parsing the body.
const jobIDHeader = "X-Job-ID"

// statusWriter captures the response status for the access log while
// passing streaming (http.Flusher) through, so SSE keeps working
// behind the instrumentation.
type statusWriter struct {
	http.ResponseWriter
	status int
	srv    *Server // the server the request is for (see routes)
}

// WriteHeader records the status before delegating.
func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer's Flusher when it has one,
// preserving the SSE handler's flusher type-assertion.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the wrapped writer to http.ResponseController, so the
// SSE handler can clear the server's per-connection deadlines through
// the instrumentation wrapper.
func (w *statusWriter) Unwrap() http.ResponseWriter {
	return w.ResponseWriter
}

// ServeHTTP dispatches to the service's routes (a Server plugs
// directly into http.Server{Handler: svc}), wrapped in the telemetry
// middleware: a request id is propagated from X-Request-ID or
// generated and always echoed back, the request duration lands in the
// per-route latency histogram, and exactly one structured access-log
// line is emitted per request — method, route pattern, status,
// duration, request id, and the job's content-keyed id when the
// request touched one.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	reqID := telemetry.RequestID(r)
	w.Header().Set(telemetry.RequestIDHeader, reqID)
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK, srv: s}
	routes().ServeHTTP(sw, r)
	dur := time.Since(start)
	// ServeMux stamps the matched pattern onto the request, so the
	// histogram label set stays bounded by the route table instead of
	// exploding with per-job paths.
	route := r.Pattern
	if route == "" {
		route = "unmatched"
	}
	s.hist.httpDuration.With(route).ObserveDuration(dur)
	attrs := []any{
		"method", r.Method,
		"route", route,
		"path", r.URL.Path,
		"status", sw.status,
		"duration_ms", float64(dur.Microseconds()) / 1e3,
		"request_id", reqID,
	}
	if id := sw.Header().Get(jobIDHeader); id != "" {
		attrs = append(attrs, "job", id)
	} else if id := r.PathValue("id"); id != "" {
		attrs = append(attrs, "job", id)
	}
	s.log.Info("request", attrs...)
}

// routes is the service's route table, built once per process and
// shared by every Server: registering the patterns costs more than the
// rest of New. A route finds its Server on the statusWriter that
// ServeHTTP hands every request, so dispatch allocates nothing extra.
var routes = sync.OnceValue(func() *http.ServeMux {
	mux := http.NewServeMux()
	handle := func(pattern string, h func(*Server, http.ResponseWriter, *http.Request)) {
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			h(w.(*statusWriter).srv, w, r)
		})
	}
	handle("POST /v1/runs", (*Server).handleSubmitRun)
	handle("POST /v1/sweeps", (*Server).handleSubmitSweep)
	handle("GET /v1/jobs", (*Server).handleListJobs)
	handle("GET /v1/jobs/{id}", (*Server).handleJobStatus)
	handle("DELETE /v1/jobs/{id}", (*Server).handleCancelJob)
	handle("GET /v1/jobs/{id}/events", (*Server).handleJobEvents)
	handle("GET /v1/jobs/{id}/artifacts/{name}", (*Server).handleJobArtifact)
	handle("GET /healthz", (*Server).handleHealthz)
	handle("GET /metrics", (*Server).handleMetrics)
	return mux
})

package serve

// The HTTP surface. Routes (Go 1.22 method+wildcard patterns):
//
//	POST   /v1/jobs             submit a sweep spec (202, dedup-aware)
//	GET    /v1/jobs             list jobs, acceptance order
//	GET    /v1/jobs/{id}        pollable status (the SSE-gap fallback)
//	GET    /v1/jobs/{id}/tables rendered results (?format=text|csv|json)
//	GET    /v1/jobs/{id}/scorecard  fidelity scorecard for the tables
//	GET    /v1/jobs/{id}/events per-job SSE stream with replay
//	DELETE /v1/jobs/{id}        cancel
//	GET    /events              daemon-wide lifecycle SSE stream
//	GET    /healthz             enriched health (uptime, phase, in-flight)
//	GET    /metrics             Prometheus text exposition
//	GET    /slo                 SLO evaluation (hifi_slo_v1 burn-rate report)
//
// Admission maps typed Submit errors onto status codes: 400 invalid
// spec, 401 missing token (when required), 429 + Retry-After for quota
// and queue-full, 503 while draining. Every JSON body is written with
// the status-mux header contract (explicit charset, Cache-Control
// no-store).

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"

	"racetrack/hifi/internal/experiments"
	"racetrack/hifi/internal/fidelity"
	"racetrack/hifi/internal/telemetry/events"
	"racetrack/hifi/internal/telemetry/log"
	"racetrack/hifi/internal/telemetry/tracectx"
)

// maxSpecBody bounds a POST /v1/jobs body; real specs are tiny.
const maxSpecBody = 1 << 20

// Handler builds the daemon's HTTP mux, wrapped in the observability
// middleware (middleware.go): every route — the mux's 404s included —
// gets a trace context, traceparent/X-Request-Id response headers, an
// access-log line, and RED metrics.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/tables", s.handleTables)
	mux.HandleFunc("GET /v1/jobs/{id}/scorecard", s.handleScorecard)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.Handle("GET /events", events.Handler(s.bus, nil))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /slo", s.handleSLO)
	return s.withObservability(mux)
}

// clientToken extracts the client identity a request carries: a Bearer
// token or an X-API-Key header. "" means anonymous.
func clientToken(r *http.Request) string {
	if auth := r.Header.Get("Authorization"); strings.HasPrefix(auth, "Bearer ") {
		return strings.TrimSpace(strings.TrimPrefix(auth, "Bearer "))
	}
	return strings.TrimSpace(r.Header.Get("X-API-Key"))
}

// clientKey is the quota key: the token when present, else the remote
// host, so anonymous clients on a tokenless server are still throttled
// per source.
func clientKey(r *http.Request) string {
	if tok := clientToken(r); tok != "" {
		return tok
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad spec: %w", err))
		return
	}
	client := clientKey(r)
	if s.opts.RequireToken && clientToken(r) == "" {
		client = ""
	}
	// The middleware put the request's trace context — ingested or
	// minted — into the context; the job inherits it.
	tc, _ := tracectx.From(r.Context())
	job, deduped, err := s.SubmitTraced(spec, client, tc)
	if err != nil {
		var qe *QuotaError
		switch {
		case errors.Is(err, ErrTokenRequired):
			writeError(w, http.StatusUnauthorized, err)
		case errors.As(err, &qe):
			w.Header().Set("Retry-After", fmt.Sprintf("%d", int(qe.RetryAfter.Seconds())))
			writeError(w, http.StatusTooManyRequests, err)
		case errors.Is(err, ErrQueueFull):
			w.Header().Set("Retry-After", "2")
			writeError(w, http.StatusTooManyRequests, err)
		case errors.Is(err, ErrDraining):
			w.Header().Set("Retry-After", "10")
			writeError(w, http.StatusServiceUnavailable, err)
		default:
			writeError(w, http.StatusBadRequest, err)
		}
		return
	}
	st := job.Status()
	st.Deduped = deduped
	w.Header().Set("Location", "/v1/jobs/"+job.ID)
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.Jobs()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Status())
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such job"))
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleTables(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such job"))
		return
	}
	// tablesFor re-materializes a restored job's tables through the
	// shared cache first (executed=0 when nothing was evicted).
	tables, runs, err := s.tablesFor(j)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if tables == nil {
		writeError(w, http.StatusConflict,
			fmt.Errorf("job %s is %s; tables exist once it is done", j.ID, j.State()))
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Header().Set("Cache-Control", "no-store")
		if _, err := fmt.Fprint(w, j.Text()); err != nil {
			log.Debugf("serve: tables write: %v", err)
		}
	case "csv":
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		w.Header().Set("Cache-Control", "no-store")
		if _, err := fmt.Fprint(w, experiments.Text(runs, tables, true)); err != nil {
			log.Debugf("serve: tables write: %v", err)
		}
	case "json":
		writeJSON(w, http.StatusOK, map[string]any{
			"schema": "hifi_serve_tables_v1",
			"runs":   runs,
			"tables": tables,
		})
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown format %q (text|csv|json)", format))
	}
}

func (s *Server) handleScorecard(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such job"))
		return
	}
	tables, _, err := s.tablesFor(j)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if tables == nil {
		writeError(w, http.StatusConflict,
			fmt.Errorf("job %s is %s; the scorecard exists once it is done", j.ID, j.State()))
		return
	}
	sc := fidelity.Evaluate(fidelity.Anchors(), tables)
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Header().Set("Cache-Control", "no-store")
	if _, err := w.Write(sc.JSON()); err != nil {
		log.Debugf("serve: scorecard write: %v", err)
	}
}

func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such job"))
		return
	}
	// j.Done() closes only after the terminal event is on the job bus
	// (finalize emits, then closes), so the stream ends right after that
	// event, its last. A restored job's done is closed from the start
	// and its bus is empty: its stream ends after the handshake.
	events.Handler(j.Bus, j.Done()).ServeHTTP(w, r)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such job"))
		return
	}
	if !s.Cancel(j.ID) {
		writeError(w, http.StatusConflict, fmt.Errorf("job %s is already %s", j.ID, j.State()))
		return
	}
	writeJSON(w, http.StatusAccepted, j.Status())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Header().Set("Cache-Control", "no-store")
	if err := s.health.WriteJSON(w); err != nil {
		log.Debugf("serve: /healthz write: %v", err)
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Header().Set("Cache-Control", "no-store")
	if s.opts.Metrics == nil {
		return
	}
	// Burn-rate gauges are computed, not incremented: refresh them so a
	// scrape always reads windows evaluated at scrape time.
	s.slo.Evaluate()
	if err := s.opts.Metrics.Snapshot().WritePrometheus(w); err != nil {
		log.Debugf("serve: /metrics write: %v", err)
	}
}

func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Header().Set("Cache-Control", "no-store")
	if err := s.SLOReport().WriteJSON(w); err != nil {
		log.Debugf("serve: /slo write: %v", err)
	}
}

// writeJSON renders v with the status-route header contract.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Debugf("serve: response write: %v", err)
	}
}

// writeError renders one error as a JSON body.
func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

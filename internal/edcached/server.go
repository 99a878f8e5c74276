package edcached

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"edcache/internal/sim"
)

// Server is the HTTP face of a Manager.
//
//	POST /jobs                        submit a JobSpec → JobStatus (202)
//	GET  /jobs/{id}                   JobStatus
//	GET  /jobs/{id}/events[?from=N]   NDJSON event stream (live, resumable)
//	GET  /jobs/{id}/result?format=F   finished result via the engine sinks
//	POST /jobs/{id}/cancel            cancel (DELETE /jobs/{id} works too)
//	POST /shards/claim                lease a shard (204 when none pending)
//	POST /shards/renew                heartbeat a lease
//	POST /shards/complete             deposit a shard (server verifies via store)
//	GET  /healthz                     process liveness (always 200)
//	GET  /readyz                      503 once draining
//	GET  /storez                      shared-store stats + service load
//
// Every non-streaming route runs under the recover middleware (a
// panicking handler answers 500; the process survives) and a request
// timeout; the events stream is exempt from the timeout — it is
// long-lived by design — but not from recovery.
type Server struct {
	m    *Manager
	cfg  Config
	root http.Handler
}

// NewServer builds the manager and its routing.
func NewServer(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	m, err := NewManager(cfg)
	if err != nil {
		return nil, err
	}
	s := &Server{m: m, cfg: cfg}

	mux := http.NewServeMux()
	mux.HandleFunc("/jobs", s.handleJobs)
	mux.HandleFunc("/jobs/", s.handleJobByID)
	mux.HandleFunc("/shards/claim", s.handleClaim)
	mux.HandleFunc("/shards/renew", s.handleRenew)
	mux.HandleFunc("/shards/complete", s.handleComplete)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/storez", s.handleStorez)

	timed := http.TimeoutHandler(mux, cfg.RequestTimeout, `{"error":"request timed out"}`)
	s.root = recoverMiddleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if id, ok := eventsPath(r.URL.Path); ok {
			s.handleEvents(w, r, id)
			return
		}
		timed.ServeHTTP(w, r)
	}))
	return s, nil
}

// Manager exposes the job manager (tests, embedded use).
func (s *Server) Manager() *Manager { return s.m }

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.root.ServeHTTP(w, r)
}

// Drain flips /readyz to 503, stops accepting jobs and claims, cancels
// live jobs resumably, and waits (bounded by ctx) for workers and
// supervisors to exit. Run it on SIGTERM before closing the listener.
func (s *Server) Drain(ctx context.Context) error { return s.m.Drain(ctx) }

// Close is Drain with a 5-second bound.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return s.Drain(ctx)
}

// recoverMiddleware turns a handler panic into a 500 and keeps the
// process (and every other job) alive. http.ErrAbortHandler is the
// net/http-sanctioned way to abort a response; re-panic it.
func recoverMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				if v == http.ErrAbortHandler {
					panic(v)
				}
				httpError(w, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", v))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// eventsPath matches /jobs/{id}/events.
func eventsPath(p string) (id string, ok bool) {
	rest, found := strings.CutPrefix(p, "/jobs/")
	if !found {
		return "", false
	}
	id, found = strings.CutSuffix(rest, "/events")
	if !found || id == "" || strings.Contains(id, "/") {
		return "", false
	}
	return id, true
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// maxBodyBytes bounds every JSON request body. The largest legitimate
// one, a JobSpec, is well under a kilobyte.
const maxBodyBytes = 1 << 20

// decodeBody decodes r's JSON body into v, reading at most maxBodyBytes.
// On failure it answers the request itself — 413 for an oversized body,
// 400 for any other decode error — and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any, what string) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooLarge):
		httpError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("%s body exceeds %d bytes", what, maxBodyBytes))
	default:
		httpError(w, http.StatusBadRequest, "bad "+what+": "+err.Error())
	}
	return false
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST /jobs")
		return
	}
	var spec JobSpec
	if !decodeBody(w, r, &spec, "JobSpec") {
		return
	}
	st, err := s.m.Submit(spec)
	switch {
	case err == nil:
		writeJSON(w, http.StatusAccepted, st)
	case errors.Is(err, ErrDraining):
		httpError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, ErrBadRequest):
		httpError(w, http.StatusBadRequest, err.Error())
	default:
		httpError(w, http.StatusInternalServerError, err.Error())
	}
}

func (s *Server) handleJobByID(w http.ResponseWriter, r *http.Request) {
	parts := strings.Split(strings.TrimPrefix(r.URL.Path, "/jobs/"), "/")
	id := parts[0]
	if id == "" {
		httpError(w, http.StatusNotFound, "no job id")
		return
	}
	switch {
	case len(parts) == 1 && r.Method == http.MethodGet:
		st, ok := s.m.Job(id)
		if !ok {
			httpError(w, http.StatusNotFound, "unknown job "+id)
			return
		}
		writeJSON(w, http.StatusOK, st)
	case len(parts) == 1 && r.Method == http.MethodDelete,
		len(parts) == 2 && parts[1] == "cancel" && r.Method == http.MethodPost:
		if !s.m.Cancel(id) {
			httpError(w, http.StatusNotFound, "unknown job "+id)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"job": id, "cancel": "requested"})
	case len(parts) == 2 && parts[1] == "result" && r.Method == http.MethodGet:
		s.handleResult(w, r, id)
	default:
		httpError(w, http.StatusNotFound, "unknown route")
	}
}

// handleResult renders a done job through the engine's sinks, so the
// service's text/json/csv bytes are the sinks' bytes — the same ones
// cmd/experiments writes.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request, id string) {
	results, state, ok := s.m.Result(id)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job "+id)
		return
	}
	if state != JobDone {
		httpError(w, http.StatusConflict, fmt.Sprintf("job %s is %s; the result exists once it is done", id, state))
		return
	}
	if results == nil {
		// A journal tombstone: the job finished under a previous server
		// and its assembled results died with that process. The points
		// are all still checkpointed, so re-submitting the same spec
		// rematerializes them as store hits.
		httpError(w, http.StatusConflict, fmt.Sprintf("job %s finished before a server restart; re-submit its spec to rematerialize the result from the store", id))
		return
	}
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "text"
	}
	var buf bytes.Buffer
	sink, err := sim.NewSink(format, &buf)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := sink.Write(results); err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	switch format {
	case "json":
		w.Header().Set("Content-Type", "application/json")
	case "csv":
		w.Header().Set("Content-Type", "text/csv")
	default:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	}
	w.Write(buf.Bytes())
}

// handleEvents streams the job's events as NDJSON: full history (or
// ?from=N onwards), then live appends until the job reaches a terminal
// state or the client goes away.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request, id string) {
	log, ok := s.m.Events(id)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job "+id)
		return
	}
	from := 0
	if q := r.URL.Query().Get("from"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, "bad from="+q)
			return
		}
		from = n
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	wake := log.subscribe()
	defer log.unsubscribe(wake)
	for {
		events, terminal := log.since(from)
		for _, e := range events {
			if err := enc.Encode(e); err != nil {
				return // client went away; unsubscribe via defer
			}
			from = e.Seq + 1
		}
		if flusher != nil {
			flusher.Flush()
		}
		if terminal {
			return
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleClaim(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST /shards/claim")
		return
	}
	var req ClaimRequest
	if !decodeBody(w, r, &req, "ClaimRequest") {
		return
	}
	cl, ok := s.m.Claim(req)
	if !ok {
		w.WriteHeader(http.StatusNoContent) // nothing pending; poll again
		return
	}
	writeJSON(w, http.StatusOK, cl)
}

func (s *Server) handleRenew(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST /shards/renew")
		return
	}
	var ref ShardRef
	if !decodeBody(w, r, &ref, "ShardRef") {
		return
	}
	if !s.m.Renew(ref) {
		httpError(w, http.StatusConflict, "lease lost")
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"renewed": true})
}

func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST /shards/complete")
		return
	}
	var ref ShardRef
	if !decodeBody(w, r, &ref, "ShardRef") {
		return
	}
	if err := s.m.CompleteExternal(ref); err != nil {
		httpError(w, http.StatusConflict, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"accepted": true})
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.m.Draining() {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

func (s *Server) handleStorez(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.m.StoreStatus())
}

package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime/debug"
	"strconv"

	"repro/internal/graph"
)

// Response codes carried in every error body, so clients distinguish
// overload from failure without parsing prose.
const (
	codeShed     = "shed"      // admission queue full: retry later
	codeDraining = "draining"  // server shutting down: retry elsewhere
	codeCancel   = "cancelled" // request context cancelled mid-flight
	codeDeadline = "deadline"  // per-request deadline exceeded
	codeInvalid  = "invalid"   // malformed request
	codePanic    = "panic"     // handler panic contained
	codeWedged   = "wedged"    // mutation path permanently failed
	codeMethod   = "method"    // wrong HTTP method
	codeInternal = "internal"  // anything else
)

type apiError struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// respWriter tracks whether a status was written, so the panic handler
// knows if it can still produce a typed error body.
type respWriter struct {
	http.ResponseWriter
	status int
}

func (w *respWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
		w.ResponseWriter.WriteHeader(code)
	}
}

func (w *respWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
	if status < 300 {
		s.counters.Served.Add(1)
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, code, msg string) {
	switch code {
	case codeShed, codeDraining:
		w.Header().Set("Retry-After", "1")
	case codeInvalid, codeMethod:
		s.counters.Invalid.Add(1)
	case codeCancel, codeDeadline:
		s.counters.Cancelled.Add(1)
	}
	s.writeJSON(w, status, apiError{Error: msg, Code: code})
}

// writeCtxError maps a context failure to its typed response.
func (s *Server) writeCtxError(w http.ResponseWriter, err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		s.writeError(w, http.StatusGatewayTimeout, codeDeadline, "request deadline exceeded")
		return
	}
	s.writeError(w, http.StatusServiceUnavailable, codeCancel, "request cancelled")
}

func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.contain(s.handleHealthz))
	mux.HandleFunc("/v1/distance", s.contain(s.read(s.handleDistance)))
	mux.HandleFunc("/v1/path", s.contain(s.read(s.handlePath)))
	mux.HandleFunc("/v1/stats", s.contain(s.handleStats))
	mux.HandleFunc("/v1/mutate", s.contain(s.handleMutate))
	mux.HandleFunc("/v1/checkpoint", s.contain(s.handleCheckpoint))
	return mux
}

// contain is the outermost middleware: per-request panic containment
// (capturePanic semantics at the serving layer — one request's panic
// becomes its own typed 500, never a process crash) plus in-flight
// accounting for Drain.
func (s *Server) contain(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rw := &respWriter{ResponseWriter: w}
		if !s.admit() {
			s.counters.Rejected.Add(1)
			s.writeError(rw, http.StatusServiceUnavailable, codeDraining, "server draining")
			return
		}
		defer s.inflight.Done()
		defer func() {
			if p := recover(); p != nil {
				s.counters.Panics.Add(1)
				if rw.status == 0 {
					s.writeError(rw, http.StatusInternalServerError, codePanic,
						fmt.Sprintf("handler panic contained: %v", p))
				}
				_ = debug.Stack // stack kept reachable for a debugger; not logged per-request
			}
		}()
		h(rw, r)
	}
}

// admit counts one request into inflight unless Drain has started; see
// Server.admitMu for why the check and the count share a lock.
func (s *Server) admit() bool {
	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	if s.draining.Load() {
		return false
	}
	s.inflight.Add(1)
	return true
}

// read is the read-path middleware: admission control with a bounded
// wait queue, then a per-request deadline derived from the client
// context and cancelled by Drain's root context.
func (s *Server) read(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			s.writeError(w, http.StatusMethodNotAllowed, codeMethod, "use GET")
			return
		}
		select {
		case s.sem <- struct{}{}:
		default:
			// No free slot: queue if the bounded queue has room, shed
			// otherwise. The explicit shed keeps overload a typed,
			// bounded-latency outcome instead of unbounded queueing.
			if s.waiters.Add(1) > int64(s.cfg.QueueDepth) {
				s.waiters.Add(-1)
				s.counters.Shed.Add(1)
				s.writeError(w, http.StatusServiceUnavailable, codeShed, "admission queue full")
				return
			}
			ctx := r.Context()
			select {
			case s.sem <- struct{}{}:
				s.waiters.Add(-1)
			case <-ctx.Done():
				s.waiters.Add(-1)
				s.writeCtxError(w, ctx.Err())
				return
			case <-s.rootCtx.Done():
				s.waiters.Add(-1)
				s.writeError(w, http.StatusServiceUnavailable, codeCancel, "server draining")
				return
			}
		}
		defer func() { <-s.sem }()

		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		// Drain's root cancel reaches into in-flight requests without a
		// goroutine per request.
		stop := context.AfterFunc(s.rootCtx, cancel)
		defer stop()
		h(w, r.WithContext(ctx))
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

// parsePair extracts and range-checks the u/v query vertices against the
// served snapshot.
func (s *Server) parsePair(w http.ResponseWriter, r *http.Request, snap *snapshot) (u, v int, ok bool) {
	var err error
	if u, err = strconv.Atoi(r.URL.Query().Get("u")); err == nil {
		v, err = strconv.Atoi(r.URL.Query().Get("v"))
	}
	if err != nil {
		s.writeError(w, http.StatusBadRequest, codeInvalid, "u and v must be integers")
		return 0, 0, false
	}
	if u < 0 || u >= snap.res.N || v < 0 || v >= snap.res.N {
		s.writeError(w, http.StatusBadRequest, codeInvalid,
			fmt.Sprintf("vertex out of range [0, %d)", snap.res.N))
		return 0, 0, false
	}
	return u, v, true
}

// parseLimit reads the optional search limit (default: unbounded).
func (s *Server) parseLimit(w http.ResponseWriter, r *http.Request) (float64, bool) {
	raw := r.URL.Query().Get("limit")
	if raw == "" {
		return graph.Inf, true
	}
	limit, err := strconv.ParseFloat(raw, 64)
	if err != nil || math.IsNaN(limit) || limit <= 0 {
		s.writeError(w, http.StatusBadRequest, codeInvalid, "limit must be a positive number")
		return 0, false
	}
	return limit, true
}

func (s *Server) handleDistance(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	snap := s.snap.Load()
	u, v, ok := s.parsePair(w, r, snap)
	if !ok {
		return
	}
	limit, ok := s.parseLimit(w, r)
	if !ok {
		return
	}
	sr := snap.searcher()
	sr.SetStop(func() bool { return ctx.Err() != nil })
	d, reachable := sr.BidirDistanceWithin(snap.g, u, v, limit)
	sr.SetStop(nil)
	snap.searchers.Put(sr)
	// A stopped search must never answer: its result may be truncated.
	if err := ctx.Err(); err != nil {
		s.writeCtxError(w, err)
		return
	}
	resp := map[string]any{"u": u, "v": v, "reachable": reachable, "version": snap.version}
	if reachable {
		resp["distance"] = d
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handlePath(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	snap := s.snap.Load()
	u, v, ok := s.parsePair(w, r, snap)
	if !ok {
		return
	}
	limit, ok := s.parseLimit(w, r)
	if !ok {
		return
	}
	sr := snap.searcher()
	sr.SetStop(func() bool { return ctx.Err() != nil })
	path, d, reachable := sr.PathWithin(snap.g, u, v, limit)
	sr.SetStop(nil)
	snap.searchers.Put(sr)
	if err := ctx.Err(); err != nil {
		s.writeCtxError(w, err)
		return
	}
	resp := map[string]any{"u": u, "v": v, "reachable": reachable, "version": snap.version}
	if reachable {
		resp["distance"] = d
		resp["path"] = path
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, codeMethod, "use GET")
		return
	}
	st := s.Stats()
	s.writeJSON(w, http.StatusOK, map[string]any{
		"version":  st.Version,
		"n":        st.N,
		"edges":    st.Edges,
		"weight":   st.Weight,
		"digest":   fmt.Sprintf("%016x", st.Digest),
		"gen":      st.Gen,
		"opseq":    st.OpSeq,
		"draining": st.Draining,
		"wedged":   st.Wedged,
		"waiting":  s.WaitersGauge(),
		"counters": s.CounterValues(),
	})
}

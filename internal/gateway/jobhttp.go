package gateway

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/service"
)

// decodeSpec is the submission intake: a strict decode capped at maxBytes
// (≤ 0: uncapped), Normalize and Validate, so malformed specs (e.g. bad
// inline graphs) fail fast with 400 instead of failing a job later. It
// builds no task-level library: that is the run's work, done once by
// whoever executes a miss, and a spec Validate accepts builds. Repeats the
// result cache will answer are validated too, so a spec gets the same
// answer whether or not it was seen before. On failure it has answered 413
// or 400 and returns false.
func decodeSpec(w http.ResponseWriter, r *http.Request, maxBytes int64) (service.JobSpec, string, bool) {
	if maxBytes > 0 {
		r.Body = http.MaxBytesReader(w, r.Body, maxBytes)
	}
	var spec service.JobSpec
	if err := service.DecodeStrict(r.Body, &spec); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("job spec exceeds %d-byte limit", tooLarge.Limit))
		} else {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("decoding job spec: %v", err))
		}
		return spec, "", false
	}
	if err := spec.Normalize(); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return spec, "", false
	}
	if _, err := service.Validate(&spec); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return spec, "", false
	}
	return spec, spec.Hash(), true
}

// handleWait long-polls a job's status: it blocks until the job reaches a
// terminal state or the "timeout" query parameter (default 30s, capped at
// 5m) elapses, then answers the job's status.
func (g *Gateway) handleWait(w http.ResponseWriter, r *http.Request) {
	j := g.lookup(w, r)
	if j == nil {
		return
	}
	d := 30 * time.Second
	if raw := r.URL.Query().Get("timeout"); raw != "" {
		parsed, err := time.ParseDuration(raw)
		if err != nil || parsed <= 0 {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("bad timeout %q", raw))
			return
		}
		d = min(parsed, 5*time.Minute)
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-j.done:
	case <-timer.C:
	case <-shuttingDown(r):
	case <-r.Context().Done():
		return
	}
	WriteJSON(w, http.StatusOK, j.wire(true))
}

// handleEvents streams the job's per-generation progress, relayed from
// the lease holder's progress reports, as SSE: a status event, a replay
// of the latest progress snapshot, live progress, and a terminal event
// named after the final state carrying the full status.
func (g *Gateway) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := g.lookup(w, r)
	if j == nil {
		return
	}
	g.m.sseSubscribers.Add(1)
	defer g.m.sseSubscribers.Add(-1)
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	// Coalescing buffer: the run never blocks on a slow consumer; a full
	// buffer drops intermediate generations, the terminal event always
	// carries the final state.
	sub := make(chan service.ProgressWire, 16)
	j.Lock()
	j.subs[sub] = struct{}{}
	// Replay the latest generation snapshot so a subscriber that joins
	// late — or after a fast job already finished — still observes
	// progress. Duplicates are harmless: progress events are snapshots.
	last := j.Progress
	j.Unlock()
	defer func() {
		j.Lock()
		delete(j.subs, sub)
		j.Unlock()
	}()

	writeSSE(w, "status", j.wire(false))
	if last != nil {
		writeSSE(w, "progress", *last)
	}
	flusher.Flush()
	for {
		select {
		case p := <-sub:
			writeSSE(w, "progress", p)
			flusher.Flush()
		case <-j.done:
			// Drain progress that raced with completion, then emit the
			// terminal event named after the final state.
			for {
				select {
				case p := <-sub:
					writeSSE(w, "progress", p)
				default:
					final := j.wire(true)
					writeSSE(w, final.State, final)
					flusher.Flush()
					return
				}
			}
		case <-shuttingDown(r):
			return
		case <-r.Context().Done():
			return
		}
	}
}

type shutdownKey struct{}

// EndLongPollsOnShutdown makes hs end its long-lived job responses once
// Shutdown starts: a wait answers the job's current status, as at its
// timeout, and an event stream ends. Shutdown waits for every open
// request, and these end only with their job, so without it one client
// watching a long run held shutdown for its whole deadline. Call it once,
// after hs.Handler is set.
func EndLongPollsOnShutdown(hs *http.Server) {
	closing := make(chan struct{})
	h := hs.Handler
	hs.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), shutdownKey{}, closing)))
	})
	hs.RegisterOnShutdown(func() { close(closing) })
}

// shuttingDown is closed once the server serving r starts shutting down;
// it is nil (never ready) outside EndLongPollsOnShutdown.
func shuttingDown(r *http.Request) <-chan struct{} {
	c, _ := r.Context().Value(shutdownKey{}).(chan struct{})
	return c
}

// checkBearer reports whether r carries "Authorization: Bearer <token>".
// The comparison is constant-time so the token cannot be guessed
// byte-by-byte from response timing.
func checkBearer(r *http.Request, token string) bool {
	h := r.Header.Get("Authorization")
	const prefix = "Bearer "
	if len(h) <= len(prefix) || h[:len(prefix)] != prefix {
		return false
	}
	return subtle.ConstantTimeCompare([]byte(h[len(prefix):]), []byte(token)) == 1
}

// RequireBearer locks h behind a bearer token: every request except GET
// /healthz must carry it, or gets 401. An empty token leaves h open.
func RequireBearer(token string, h http.Handler) http.Handler {
	if token == "" {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" && !checkBearer(r, token) {
			httpError(w, http.StatusUnauthorized, "missing or invalid bearer token")
			return
		}
		h.ServeHTTP(w, r)
	})
}

// HandleHealthz is the liveness probe.
func HandleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// WriteJSON answers with v as indented JSON.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeSSE(w http.ResponseWriter, event string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		data = []byte(fmt.Sprintf(`{"error":%q}`, err.Error()))
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
}

// httpError answers with {"error": msg}.
func httpError(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, map[string]string{"error": msg})
}

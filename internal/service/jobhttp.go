package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"
)

// The job API's HTTP pieces, shared by the daemon and the gateway so both
// surfaces emit the same bytes. Each surface resolves the job (and answers
// 404 or 401) itself.

// DecodeSpec is the submission intake: a strict decode capped at maxBytes
// (≤ 0: uncapped), Normalize and Validate, so malformed specs (e.g. bad
// inline graphs) fail fast with 400 instead of failing a job later. It
// builds no task-level library: that is the run's work, done once by
// whoever executes a miss, and a spec Validate accepts builds. Repeats the
// result cache will answer are validated too, so a spec gets the same
// answer whether or not it was seen before. On failure it has answered 413
// or 400 and returns false.
func DecodeSpec(w http.ResponseWriter, r *http.Request, maxBytes int64) (JobSpec, string, bool) {
	if maxBytes > 0 {
		r.Body = http.MaxBytesReader(w, r.Body, maxBytes)
	}
	var spec JobSpec
	if err := decodeStrict(r.Body, &spec); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			HTTPError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("job spec exceeds %d-byte limit", tooLarge.Limit))
		} else {
			HTTPError(w, http.StatusBadRequest, fmt.Sprintf("decoding job spec: %v", err))
		}
		return spec, "", false
	}
	if err := spec.Normalize(); err != nil {
		HTTPError(w, http.StatusBadRequest, err.Error())
		return spec, "", false
	}
	if _, err := Validate(&spec); err != nil {
		HTTPError(w, http.StatusBadRequest, err.Error())
		return spec, "", false
	}
	return spec, spec.Hash(), true
}

// decodeStrict decodes one JSON job spec and rejects fields JobSpec does
// not have. Submissions and recovered journal records share this rule.
func decodeStrict(r io.Reader, spec *JobSpec) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return dec.Decode(spec)
}

// ServeWait is the long-poll companion of a status read: it blocks until
// the job reaches a terminal state or the "timeout" query parameter
// (default 30s, capped at 5m) elapses, then responds with the job's wire
// status. The remote-sweep client (gateway.Client) uses it to await cells
// without busy polling.
func ServeWait(w http.ResponseWriter, r *http.Request, j *Job) {
	d := 30 * time.Second
	if raw := r.URL.Query().Get("timeout"); raw != "" {
		parsed, err := time.ParseDuration(raw)
		if err != nil || parsed <= 0 {
			HTTPError(w, http.StatusBadRequest, fmt.Sprintf("bad timeout %q", raw))
			return
		}
		d = min(parsed, 5*time.Minute)
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-j.done:
	case <-timer.C:
	case <-r.Context().Done():
		return
	}
	WriteJSON(w, http.StatusOK, j.Wire(true))
}

// ServeEvents streams the job's per-generation progress as SSE: a status
// event, a replay of the latest progress snapshot, live progress, and a
// terminal event named after the final state carrying the full status.
func ServeEvents(w http.ResponseWriter, r *http.Request, j *Job) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		HTTPError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	// Coalescing buffer: the run never blocks on a slow consumer; a full
	// buffer drops intermediate generations, the terminal event always
	// carries the final state.
	sub := make(chan ProgressWire, 16)
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

	writeSSE(w, "status", j.Wire(false))
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
					final := j.Wire(true)
					writeSSE(w, final.State, final)
					flusher.Flush()
					return
				}
			}
		case <-r.Context().Done():
			return
		}
	}
}

// WriteJobList answers a job listing; fronts are never inlined.
func WriteJobList(w http.ResponseWriter, jobs []*Job) {
	out := make([]*JobWire, len(jobs))
	for i, j := range jobs {
		out[i] = j.Wire(false)
	}
	WriteJSON(w, http.StatusOK, map[string]any{"jobs": out})
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

// HTTPError answers with {"error": msg}.
func HTTPError(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, map[string]string{"error": msg})
}

package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

// newTestServer starts a service plus an HTTP front end and wires teardown.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		// Force-cancel whatever is still running so teardown is fast.
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		_ = s.Shutdown(ctx)
		ts.Close()
	})
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, spec JobSpec) (*JobWire, int) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		var e map[string]string
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return &JobWire{Error: e["error"]}, resp.StatusCode
	}
	var jw JobWire
	if err := json.NewDecoder(resp.Body).Decode(&jw); err != nil {
		t.Fatal(err)
	}
	return &jw, resp.StatusCode
}

func getJob(t *testing.T, ts *httptest.Server, id string) *JobWire {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jw JobWire
	if err := json.NewDecoder(resp.Body).Decode(&jw); err != nil {
		t.Fatal(err)
	}
	return &jw
}

func cancelJob(t *testing.T, ts *httptest.Server, id string) *JobWire {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jw JobWire
	if err := json.NewDecoder(resp.Body).Decode(&jw); err != nil {
		t.Fatal(err)
	}
	return &jw
}

func getMetrics(t *testing.T, ts *httptest.Server) *MetricsWire {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m MetricsWire
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return &m
}

// waitFor polls the job until cond holds or the deadline passes.
func waitFor(t *testing.T, ts *httptest.Server, id string, timeout time.Duration, cond func(*JobWire) bool) *JobWire {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		jw := getJob(t, ts, id)
		if cond(jw) {
			return jw
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s: condition not met before deadline; last state %+v", id, jw)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func terminal(jw *JobWire) bool {
	switch jw.State {
	case StateDone, StateFailed, StateCancelled:
		return true
	}
	return false
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	name string
	data []byte
}

// readSSE consumes the stream until a terminal event (done / failed /
// cancelled) arrives or the stream ends.
func readSSE(t *testing.T, ts *httptest.Server, id string) []sseEvent {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "":
			if cur.name != "" {
				events = append(events, cur)
				if cur.name == StateDone || cur.name == StateFailed || cur.name == StateCancelled {
					return events
				}
				cur = sseEvent{}
			}
		}
	}
	return events
}

// longSpec is a job that cannot finish on its own within the test.
func longSpec(seed int64) JobSpec {
	return JobSpec{App: "sobel", Method: "fcclr", Pop: 16, Gens: 50000, Seed: seed}
}

// TestEndToEndProposed is the acceptance path: submit a sobel proposed
// job, watch SSE progress arrive generation by generation, fetch the
// Pareto front, check it equals a direct core run at the same seed, and
// confirm a duplicate submission is served from the result cache.
func TestEndToEndProposed(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 8, CacheCap: 8})
	spec := JobSpec{App: "sobel", Method: "proposed", Pop: 16, Gens: 40, Seed: 1}

	jw, code := postJob(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d (%s)", code, jw.Error)
	}
	if jw.State != StateQueued || jw.SpecHash == "" {
		t.Fatalf("unexpected submit response: %+v", jw)
	}

	events := readSSE(t, ts, jw.ID)
	var progress []ProgressWire
	var finalEvent *sseEvent
	for i, e := range events {
		switch e.name {
		case "progress":
			var p ProgressWire
			if err := json.Unmarshal(e.data, &p); err != nil {
				t.Fatalf("bad progress payload: %v", err)
			}
			progress = append(progress, p)
		case StateDone, StateFailed, StateCancelled:
			finalEvent = &events[i]
		}
	}
	if finalEvent == nil || finalEvent.name != StateDone {
		t.Fatalf("no done event on the stream; events: %d, last %+v", len(events), events[len(events)-1])
	}
	if len(progress) == 0 {
		t.Fatal("no SSE progress events arrived")
	}
	for _, p := range progress {
		if p.Stage != "pfclr" && p.Stage != "fcclr" {
			t.Fatalf("unexpected stage %q", p.Stage)
		}
		if p.TotalGenerations != 80 || p.Generations != 40 {
			t.Fatalf("unexpected budget on event: %+v", p)
		}
	}

	done := getJob(t, ts, jw.ID)
	if done.State != StateDone || done.Front == nil || len(done.Front.Points) == 0 {
		t.Fatalf("job did not finish with a front: %+v", done)
	}

	// The service front must match a direct core run of the same spec.
	direct := spec
	if err := direct.Normalize(); err != nil {
		t.Fatal(err)
	}
	front, err := Execute(context.Background(), &direct, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := FrontToWire(front)
	if !reflect.DeepEqual(done.Front, want) {
		t.Fatalf("service front diverges from direct run:\nservice: %+v\ndirect:  %+v", done.Front, want)
	}

	// A second identical submission is a cache hit: it completes
	// instantly with the same front and bumps the hit counter.
	jw2, code2 := postJob(t, ts, spec)
	if code2 != http.StatusOK || !jw2.Cached || jw2.State != StateDone {
		t.Fatalf("duplicate spec not served from cache: status %d, %+v", code2, jw2)
	}
	if !reflect.DeepEqual(jw2.Front, want) {
		t.Fatal("cached front differs from the computed one")
	}
	m := getMetrics(t, ts)
	if m.Cache.Hits != 1 || m.Cache.Misses != 1 {
		t.Fatalf("cache counters: %+v, want 1 hit / 1 miss", m.Cache)
	}
	if m.Jobs.Done != 2 || m.Jobs.Submitted != 2 {
		t.Fatalf("job counters: %+v", m.Jobs)
	}
	if _, ok := m.Latency["proposed"]; !ok {
		t.Fatalf("no latency histogram for proposed: %+v", m.Latency)
	}
}

func TestCancelWhileQueued(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	// Occupy the single worker so the next job stays queued.
	blocker, code := postJob(t, ts, longSpec(11))
	if code != http.StatusAccepted {
		t.Fatalf("blocker: status %d", code)
	}
	waitFor(t, ts, blocker.ID, 10*time.Second, func(jw *JobWire) bool { return jw.State == StateRunning })

	queued, code := postJob(t, ts, longSpec(12))
	if code != http.StatusAccepted || queued.State != StateQueued {
		t.Fatalf("second job: status %d, %+v", code, queued)
	}
	got := cancelJob(t, ts, queued.ID)
	if got.State != StateCancelled {
		t.Fatalf("cancel-while-queued: state %q, want cancelled", got.State)
	}

	// Unblock the worker; the cancelled job must be skipped, not run.
	cancelJob(t, ts, blocker.ID)
	waitFor(t, ts, blocker.ID, 10*time.Second, terminal)
	time.Sleep(20 * time.Millisecond)
	if jw := getJob(t, ts, queued.ID); jw.State != StateCancelled || jw.StartedAt != nil {
		t.Fatalf("cancelled queued job was started: %+v", jw)
	}
}

func TestCancelWhileRunningStopsWithinOneGeneration(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	jw, code := postJob(t, ts, longSpec(13))
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	// Wait until the GA is demonstrably advancing.
	waitFor(t, ts, jw.ID, 10*time.Second, func(w *JobWire) bool {
		return w.State == StateRunning && w.Progress != nil && w.Progress.Generation >= 1
	})
	snap := cancelJob(t, ts, jw.ID) // snapshot taken after ctx cancellation
	final := waitFor(t, ts, jw.ID, 10*time.Second, terminal)
	if final.State != StateCancelled {
		t.Fatalf("state %q, want cancelled", final.State)
	}
	if final.Front != nil {
		t.Fatal("cancelled job must not carry a front")
	}
	// The GA polls its context between generations: at most the
	// generation in flight at cancellation may still complete.
	atCancel := 0
	if snap.Progress != nil {
		atCancel = snap.Progress.Generation
	}
	if final.Progress.Generation > atCancel+1 {
		t.Fatalf("GA ran %d generations past cancellation (at %d, stopped at %d)",
			final.Progress.Generation-atCancel, atCancel, final.Progress.Generation)
	}
}

func TestQueueFullRejection(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 1})
	blocker, code := postJob(t, ts, longSpec(21))
	if code != http.StatusAccepted {
		t.Fatalf("blocker: status %d", code)
	}
	waitFor(t, ts, blocker.ID, 10*time.Second, func(jw *JobWire) bool { return jw.State == StateRunning })

	queued, code := postJob(t, ts, longSpec(22))
	if code != http.StatusAccepted {
		t.Fatalf("filler: status %d, %+v", code, queued)
	}
	over, code := postJob(t, ts, longSpec(23))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity submit: status %d, want 503 (%+v)", code, over)
	}
	m := getMetrics(t, ts)
	if m.Jobs.Rejected != 1 {
		t.Fatalf("rejected counter = %d, want 1", m.Jobs.Rejected)
	}
	if m.Queue.Depth != 1 || m.Queue.Capacity != 1 {
		t.Fatalf("queue gauge: %+v", m.Queue)
	}
	cancelJob(t, ts, queued.ID)
	cancelJob(t, ts, blocker.ID)
	waitFor(t, ts, blocker.ID, 10*time.Second, terminal)
}

func TestSubmitRejectsBadSpecs(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []JobSpec{
		{Method: "bogus"},
		{App: "bogus"},
		{GraphText: "not a task graph"},
		{Objectives: []string{"makespan"}},
	}
	for i, spec := range cases {
		if _, code := postJob(t, ts, spec); code != http.StatusBadRequest {
			t.Errorf("case %d: status %d, want 400", i, code)
		}
	}
	// Unknown JSON fields are rejected too: typos, and the removed
	// surrogate-screening knobs.
	for _, raw := range []string{`{"methodd":"proposed"}`, `{"surrogate":true}`, `{"surrogate_fraction":0.5}`} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("unknown field %s: status %d, want 400", raw, resp.StatusCode)
		}
	}
	if _, code := postJob(t, ts, JobSpec{}); code != http.StatusAccepted {
		t.Fatalf("empty spec (all defaults) should be accepted, got %d", code)
	}
}

func TestUnknownJobRoutes(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/events"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: status %d, want 404", path, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
}

func TestGracefulShutdownCancelsRunningAndQueued(t *testing.T) {
	s := New(Config{Workers: 1, QueueCap: 4})
	ts := httptest.NewServer(s)
	defer ts.Close()

	running, _ := postJob(t, ts, longSpec(31))
	waitFor(t, ts, running.ID, 10*time.Second, func(jw *JobWire) bool { return jw.State == StateRunning })
	queued, _ := postJob(t, ts, longSpec(32))

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded (job outlives the drain window)", err)
	}
	if jw := getJob(t, ts, running.ID); jw.State != StateCancelled {
		t.Fatalf("running job after shutdown: %q, want cancelled", jw.State)
	}
	if jw := getJob(t, ts, queued.ID); jw.State != StateCancelled {
		t.Fatalf("queued job after shutdown: %q, want cancelled", jw.State)
	}
	// The drained server refuses new work but keeps answering reads.
	if _, code := postJob(t, ts, JobSpec{App: "sobel", Method: "fcclr", Pop: 8, Gens: 2, Seed: 5}); code != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown submit: status %d, want 503", code)
	}
	// Idempotent.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}

func TestSSEOnFinishedJobDeliversTerminalEventImmediately(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	spec := JobSpec{App: "sobel", Method: "fcclr", Pop: 8, Gens: 2, Seed: 41}
	jw, _ := postJob(t, ts, spec)
	waitFor(t, ts, jw.ID, 10*time.Second, terminal)

	events := readSSE(t, ts, jw.ID)
	if len(events) == 0 {
		t.Fatal("no events on finished job")
	}
	last := events[len(events)-1]
	if last.name != StateDone {
		t.Fatalf("terminal event %q, want done", last.name)
	}
	var final JobWire
	if err := json.Unmarshal(last.data, &final); err != nil {
		t.Fatal(err)
	}
	if final.Front == nil || len(final.Front.Points) == 0 {
		t.Fatal("terminal event carries no front")
	}
}

func TestListJobs(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	spec := JobSpec{App: "sobel", Method: "fcclr", Pop: 8, Gens: 2, Seed: 51}
	jw, _ := postJob(t, ts, spec)
	waitFor(t, ts, jw.ID, 10*time.Second, terminal)
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Jobs []*JobWire `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Jobs) != 1 || out.Jobs[0].ID != jw.ID {
		t.Fatalf("unexpected listing: %+v", out.Jobs)
	}
	if out.Jobs[0].Front != nil {
		t.Fatal("listing must not inline fronts")
	}
}

// TestConcurrentJobsShareTokenPool exercises two jobs running at once on
// the worker pool: both must finish, and determinism must hold — the
// front of a spec is identical whether it ran alone or alongside another.
func TestConcurrentJobsShareTokenPool(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueCap: 8})
	a := JobSpec{App: "sobel", Method: "fcclr", Pop: 16, Gens: 10, Seed: 61}
	b := JobSpec{App: "sobel", Method: "fcclr", Pop: 16, Gens: 10, Seed: 62}
	ja, _ := postJob(t, ts, a)
	jb, _ := postJob(t, ts, b)
	fa := waitFor(t, ts, ja.ID, 30*time.Second, terminal)
	fb := waitFor(t, ts, jb.ID, 30*time.Second, terminal)
	if fa.State != StateDone || fb.State != StateDone {
		t.Fatalf("states: %s / %s", fa.State, fb.State)
	}
	direct := a
	if err := direct.Normalize(); err != nil {
		t.Fatal(err)
	}
	front, err := Execute(context.Background(), &direct, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fa.Front, FrontToWire(front)) {
		t.Fatal("front computed under concurrency diverges from solo run")
	}
}

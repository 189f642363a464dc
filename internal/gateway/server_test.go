package gateway

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultmodel"
	"repro/internal/service"
)

// The daemon's HTTP tests: clrearlyd without -gateway serves the gateway
// with in-process agents, so these drive New configured the way
// cmd/clrearlyd configures it (newDaemon).

// longSpec is a job that cannot finish on its own within the test.
func longSpec(seed int64) service.JobSpec {
	return service.JobSpec{App: "sobel", Method: "fcclr", Pop: 16, Gens: 50000, Seed: seed}
}

// TestEndToEndProposed is the acceptance path: submit a sobel proposed
// job, watch SSE progress arrive generation by generation, fetch the
// Pareto front, check it equals a direct core run at the same seed, and
// confirm a duplicate submission is served from the result cache.
func TestEndToEndProposed(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 8, CacheCap: 8})
	spec := service.JobSpec{App: "sobel", Method: "proposed", Pop: 16, Gens: 40, Seed: 1}

	jw, resp := submitSpec(t, ts, "", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d (%s)", resp.StatusCode, jw.Error)
	}
	if jw.State != service.StateQueued || jw.SpecHash == "" {
		t.Fatalf("unexpected submit response: %+v", jw)
	}

	events := readEvents(t, ts, "", jw.ID)
	var progress []service.ProgressWire
	var finalEvent *sseEvent
	for i, e := range events {
		switch e.name {
		case "progress":
			var p service.ProgressWire
			if err := json.Unmarshal(e.data, &p); err != nil {
				t.Fatalf("bad progress payload: %v", err)
			}
			progress = append(progress, p)
		case service.StateDone, service.StateFailed, service.StateCancelled:
			finalEvent = &events[i]
		}
	}
	if finalEvent == nil || finalEvent.name != service.StateDone {
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

	done := getWire(t, ts, "", "/v1/jobs/"+jw.ID)
	if done.State != service.StateDone || done.Front == nil || len(done.Front.Points) == 0 {
		t.Fatalf("job did not finish with a front: %+v", done)
	}

	// The service front must match a direct core run of the same spec.
	direct := spec
	if err := direct.Normalize(); err != nil {
		t.Fatal(err)
	}
	front, err := service.Execute(context.Background(), &direct, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := service.FrontToWire(front)
	if !reflect.DeepEqual(done.Front, want) {
		t.Fatalf("service front diverges from direct run:\nservice: %+v\ndirect:  %+v", done.Front, want)
	}

	// A second identical submission is a cache hit: it completes
	// instantly with the same front and bumps the hit counter.
	jw2, resp2 := submitSpec(t, ts, "", spec)
	if resp2.StatusCode != http.StatusOK || !jw2.Cached || jw2.State != service.StateDone {
		t.Fatalf("duplicate spec not served from cache: status %d, %+v", resp2.StatusCode, jw2)
	}
	if !reflect.DeepEqual(jw2.Front, want) {
		t.Fatal("cached front differs from the computed one")
	}
	m := getMetrics(t, ts)
	if m.Dedup.CacheHits != 1 || m.Dedup.Misses != 1 {
		t.Fatalf("cache counters: %+v, want 1 hit / 1 miss", m.Dedup)
	}
	// A cache hit is done at once without running: one job completed.
	if m.Completed != 1 || m.Submitted != 2 {
		t.Fatalf("job counters: %d submitted, %d completed; want 2 and 1", m.Submitted, m.Completed)
	}
	if _, ok := m.Latency["proposed"]; !ok {
		t.Fatalf("no latency histogram for proposed: %+v", m.Latency)
	}
}

func TestCancelWhileQueued(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	// Occupy the single worker so the next job stays queued.
	blocker, resp := submitSpec(t, ts, "", longSpec(11))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("blocker: status %d", resp.StatusCode)
	}
	waitFor(t, ts, "", blocker.ID, 10*time.Second, func(jw *service.JobWire) bool { return jw.State == service.StateRunning })

	queued, resp := submitSpec(t, ts, "", longSpec(12))
	if resp.StatusCode != http.StatusAccepted || queued.State != service.StateQueued {
		t.Fatalf("second job: status %d, %+v", resp.StatusCode, queued)
	}
	got := cancelJob(t, ts, "", queued.ID)
	if got.State != service.StateCancelled {
		t.Fatalf("cancel-while-queued: state %q, want cancelled", got.State)
	}

	// Unblock the worker; the cancelled job must be skipped, not run.
	cancelJob(t, ts, "", blocker.ID)
	waitFor(t, ts, "", blocker.ID, 10*time.Second, terminal)
	time.Sleep(20 * time.Millisecond)
	if jw := getWire(t, ts, "", "/v1/jobs/"+queued.ID); jw.State != service.StateCancelled || jw.StartedAt != nil {
		t.Fatalf("cancelled queued job was started: %+v", jw)
	}
}

func TestCancelWhileRunningStopsWithinOneGeneration(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	jw, resp := submitSpec(t, ts, "", longSpec(13))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	// Wait until the GA is demonstrably advancing.
	waitFor(t, ts, "", jw.ID, 10*time.Second, func(w *service.JobWire) bool {
		return w.State == service.StateRunning && w.Progress != nil && w.Progress.Generation >= 1
	})
	snap := cancelJob(t, ts, "", jw.ID) // snapshot taken after ctx cancellation
	final := waitFor(t, ts, "", jw.ID, 10*time.Second, terminal)
	if final.State != service.StateCancelled {
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
	blocker, resp := submitSpec(t, ts, "", longSpec(21))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("blocker: status %d", resp.StatusCode)
	}
	waitFor(t, ts, "", blocker.ID, 10*time.Second, func(jw *service.JobWire) bool { return jw.State == service.StateRunning })

	queued, resp := submitSpec(t, ts, "", longSpec(22))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("filler: status %d, %+v", resp.StatusCode, queued)
	}
	over, resp := submitSpec(t, ts, "", longSpec(23))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit: status %d, want 429 (%+v)", resp.StatusCode, over)
	}
	m := getMetrics(t, ts)
	if m.Rejects.Backpressure != 1 {
		t.Fatalf("rejected counter = %d, want 1", m.Rejects.Backpressure)
	}
	if m.Queue.Normal != 1 || m.Queue.Capacity != 1 {
		t.Fatalf("queue gauge: %+v", m.Queue)
	}
	cancelJob(t, ts, "", queued.ID)
	cancelJob(t, ts, "", blocker.ID)
	waitFor(t, ts, "", blocker.ID, 10*time.Second, terminal)
}

func TestSubmitRejectsBadSpecs(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []service.JobSpec{
		{Method: "bogus"},
		{App: "bogus"},
		{GraphText: "not a task graph"},
		{Objectives: []string{"makespan"}},
		{App: "synthetic", Tasks: service.MaxSyntheticTasks + 1},
		// Saturating permanent faults with perfect repair: the library
		// method's chains would be singular, the fcCLR run's likewise.
		{Method: "pfclr", Faults: saturatingFaults()},
		{Method: "fcclr", Faults: saturatingFaults()},
	}
	for i, spec := range cases {
		if _, resp := submitSpec(t, ts, "", spec); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %d, want 400", i, resp.StatusCode)
		}
	}
	// Unknown JSON fields are rejected too: typos, and the fields of
	// removed features and options (removedSpecFields).
	raws := []string{`{"methodd":"proposed"}`}
	for _, f := range removedSpecFields {
		blob, err := json.Marshal(map[string]any{f.name: f.v})
		if err != nil {
			t.Fatal(err)
		}
		raws = append(raws, string(blob))
	}
	for _, raw := range raws {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("unknown field %s: status %d, want 400", raw, resp.StatusCode)
		}
	}
	if _, resp := submitSpec(t, ts, "", service.JobSpec{}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("empty spec (all defaults) should be accepted, got %d", resp.StatusCode)
	}
}

// saturatingFaults makes a permanent hit near certain in every task
// execution and repairs every hit, far beyond core.MaxPermanentHits.
func saturatingFaults() *faultmodel.Model {
	return &faultmodel.Model{Default: faultmodel.FaultModel{PermanentPerHour: 1e11, RepairProb: 1}}
}

// chainSolves is the process-wide count of reliability chain analyses, the
// work of tDSE enumeration and of fcCLR metric decoding.
func chainSolves() uint64 {
	a := core.AccelTotals()
	return a.PairedSolves + a.SoloSolves
}

// TestDaemonBuildsLibraryOncePerMiss: a daemon miss builds its task-level
// library once, in the worker, not a second time at intake. A pfCLR run
// solves no chains of its own, so the daemon's whole chain count for the
// job must equal one service.Build's. Not parallel: the counter is process-wide.
func TestDaemonBuildsLibraryOncePerMiss(t *testing.T) {
	spec := service.JobSpec{App: "sobel", Method: "pfclr", Pop: 8, Gens: 2, Seed: 41}
	norm := spec
	if err := norm.Normalize(); err != nil {
		t.Fatal(err)
	}
	before := chainSolves()
	inst, flib, err := service.Build(&norm)
	if err != nil {
		t.Fatal(err)
	}
	perBuild := chainSolves() - before
	if perBuild == 0 {
		t.Fatal("a library build solved no chains")
	}
	before = chainSolves()
	if _, err := service.ExecuteOn(context.Background(), inst, flib, &norm, nil); err != nil {
		t.Fatal(err)
	}
	if n := chainSolves() - before; n != 0 {
		t.Fatalf("a pfCLR run solved %d chains, want 0", n)
	}

	_, ts := newTestServer(t, Config{Workers: 1})
	before = chainSolves()
	jw, resp := submitSpec(t, ts, "", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", resp.StatusCode)
	}
	if done := waitFor(t, ts, "", jw.ID, 30*time.Second, terminal); done.State != service.StateDone {
		t.Fatalf("job ended %s: %s", done.State, done.Error)
	}
	if n := chainSolves() - before; n != perBuild {
		t.Fatalf("daemon miss solved %d chains, want one library build's %d", n, perBuild)
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

// TestGracefulShutdownCancelsRunningAndQueued: shutting the daemon down
// stops its running job within one generation and returns only once the
// run has returned. Neither the running nor the queued job is journaled
// as ended: both stay pending in the store for the next start to run.
// Shutdown is idempotent.
func TestGracefulShutdownCancelsRunningAndQueued(t *testing.T) {
	st := openStore(t, t.TempDir())
	t.Cleanup(func() { st.Close() })
	g := newDaemon(t, Config{Workers: 1, QueueCap: 4, Store: st}, "")
	ts := httptest.NewServer(g)
	defer ts.Close()

	running, _ := submitSpec(t, ts, "", longSpec(31))
	waitFor(t, ts, "", running.ID, 10*time.Second, func(jw *service.JobWire) bool {
		return jw.State == service.StateRunning && jw.Progress != nil
	})
	queued, _ := submitSpec(t, ts, "", longSpec(32))

	g.Close()
	at := getWire(t, ts, "", "/v1/jobs/"+running.ID).Progress.Generation
	time.Sleep(50 * time.Millisecond)
	if now := getWire(t, ts, "", "/v1/jobs/"+running.ID).Progress.Generation; now != at {
		t.Fatalf("the run went on after shutdown: generation %d, then %d", at, now)
	}
	for _, id := range []string{running.ID, queued.ID} {
		pending := false
		for _, jr := range st.Jobs() {
			pending = pending || (jr.ID == id && jr.Pending())
		}
		if !pending {
			t.Fatalf("job %s is not pending in the store after shutdown", id)
		}
	}
	// Idempotent.
	g.Close()
}

// TestShutdownEndsLongPolls holds a /wait long-poll and an /events stream
// open on a job that cannot finish, then shuts the HTTP server down with
// a 5 s deadline: both must end at once, the wait answering the job's
// running status, so Shutdown returns well within its deadline.
func TestShutdownEndsLongPolls(t *testing.T) {
	g, err := New(Config{
		Tenants: []TenantConfig{{Name: "clrearlyd", MaxActive: -1}},
		Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	entered := make(chan string, 2)
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/wait") || strings.HasSuffix(r.URL.Path, "/events") {
			entered <- r.URL.Path
		}
		g.ServeHTTP(w, r)
	}))
	EndLongPollsOnShutdown(ts.Config)
	ts.Start()
	defer ts.Close()

	jw, _ := submitSpec(t, ts, "", longSpec(41))
	waitFor(t, ts, "", jw.ID, 10*time.Second, func(jw *service.JobWire) bool { return jw.State == service.StateRunning })
	waited := make(chan *service.JobWire, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + jw.ID + "/wait?timeout=5m")
		if err != nil {
			t.Error(err)
			waited <- nil
			return
		}
		defer resp.Body.Close()
		var got service.JobWire
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Errorf("decoding the wait answer (status %d): %v", resp.StatusCode, err)
		}
		waited <- &got
	}()
	streamed := make(chan []sseEvent, 1)
	go func() { streamed <- readEvents(t, ts, "", jw.ID) }()
	<-entered
	<-entered

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := ts.Config.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v after %v", err, time.Since(start))
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("Shutdown took %v with a wait and a stream open", took)
	}
	if got := <-waited; got == nil || got.State != service.StateRunning {
		t.Fatalf("the wait answered %+v, want the running status", got)
	}
	if events := <-streamed; len(events) == 0 || events[0].name != "status" {
		t.Fatalf("the stream delivered %v, want its status event before it ended", events)
	}
}

func TestSSEOnFinishedJobDeliversTerminalEventImmediately(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	spec := service.JobSpec{App: "sobel", Method: "fcclr", Pop: 8, Gens: 2, Seed: 41}
	jw, _ := submitSpec(t, ts, "", spec)
	waitFor(t, ts, "", jw.ID, 10*time.Second, terminal)

	events := readEvents(t, ts, "", jw.ID)
	if len(events) == 0 {
		t.Fatal("no events on finished job")
	}
	last := events[len(events)-1]
	if last.name != service.StateDone {
		t.Fatalf("terminal event %q, want done", last.name)
	}
	var final service.JobWire
	if err := json.Unmarshal(last.data, &final); err != nil {
		t.Fatal(err)
	}
	if final.Front == nil || len(final.Front.Points) == 0 {
		t.Fatal("terminal event carries no front")
	}
}

func TestListJobs(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	spec := service.JobSpec{App: "sobel", Method: "fcclr", Pop: 8, Gens: 2, Seed: 51}
	jw, _ := submitSpec(t, ts, "", spec)
	waitFor(t, ts, "", jw.ID, 10*time.Second, terminal)
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Jobs []*service.JobWire `json:"jobs"`
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
	a := service.JobSpec{App: "sobel", Method: "fcclr", Pop: 16, Gens: 10, Seed: 61}
	b := service.JobSpec{App: "sobel", Method: "fcclr", Pop: 16, Gens: 10, Seed: 62}
	ja, _ := submitSpec(t, ts, "", a)
	jb, _ := submitSpec(t, ts, "", b)
	fa := waitFor(t, ts, "", ja.ID, 30*time.Second, terminal)
	fb := waitFor(t, ts, "", jb.ID, 30*time.Second, terminal)
	if fa.State != service.StateDone || fb.State != service.StateDone {
		t.Fatalf("states: %s / %s", fa.State, fb.State)
	}
	direct := a
	if err := direct.Normalize(); err != nil {
		t.Fatal(err)
	}
	front, err := service.Execute(context.Background(), &direct, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fa.Front, service.FrontToWire(front)) {
		t.Fatal("front computed under concurrency diverges from solo run")
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h histogram
	h.observe(5)      // le_10ms
	h.observe(10)     // le_10ms (inclusive upper bound)
	h.observe(11)     // le_30ms
	h.observe(200000) // le_inf
	w := h.wire()
	if w.Count != 4 {
		t.Fatalf("count = %d, want 4", w.Count)
	}
	if w.Buckets["le_10ms"] != 2 {
		t.Fatalf("le_10ms = %d, want 2", w.Buckets["le_10ms"])
	}
	if w.Buckets["le_30ms"] != 3 {
		t.Fatalf("le_30ms cumulative = %d, want 3", w.Buckets["le_30ms"])
	}
	if w.Buckets["le_inf"] != 4 {
		t.Fatalf("le_inf = %d, want 4", w.Buckets["le_inf"])
	}
	if w.SumMS != 5+10+11+200000 {
		t.Fatalf("sum = %v", w.SumMS)
	}
}

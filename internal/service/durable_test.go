package service

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/store"
)

// openTestStore opens a store in dir with the fast fsync policy — the
// durability semantics under test (journaling, recovery, checkpoint
// resume) are identical across policies.
func openTestStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// referenceFront runs the spec uninterrupted in-process and returns the
// canonical wire-form bytes of its front.
func referenceFront(t *testing.T, spec JobSpec) []byte {
	t.Helper()
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	front, err := Execute(context.Background(), &spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(FrontToWire(front))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func marshalWireFront(t *testing.T, fw *FrontWire) []byte {
	t.Helper()
	b, err := json.Marshal(fw)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCrashResumeByteIdenticalFront is the acceptance test of the durable
// service: a run aborted mid-evolution (forced shutdown, the in-process
// equivalent of kill -9 after the last checkpoint) is re-enqueued by the
// next incarnation, resumes from its checkpoint, and produces a front
// byte-identical to an uninterrupted run of the same spec.
func TestCrashResumeByteIdenticalFront(t *testing.T) {
	// The budget must be large enough that the abort lands mid-run: the
	// GA clears hundreds of sobel generations per second, and the gap
	// between observing generation ≥ 4 and the abort taking effect spans
	// many generations.
	spec := JobSpec{App: "sobel", Method: "proposed", Pop: 16, Gens: 1200, Seed: 42}
	want := referenceFront(t, spec)

	dir := t.TempDir()
	st := openTestStore(t, dir)
	s1 := New(Config{Workers: 1, Store: st, CheckpointEvery: 2})
	ts1 := httptest.NewServer(s1)

	jw, code := postJob(t, ts1, spec)
	if code != 202 {
		t.Fatalf("submit: %d %s", code, jw.Error)
	}
	// Let the run get past a few checkpoints, then pull the plug: an
	// already-expired shutdown context forces the abort path immediately.
	waitFor(t, ts1, jw.ID, 30*time.Second, func(w *JobWire) bool {
		return w.Progress != nil && w.Progress.Generation >= 4
	})
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	_ = s1.Shutdown(expired)
	ts1.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// The aborted job must still be pending with a saved checkpoint —
	// aborts are not terminal states.
	st2 := openTestStore(t, dir)
	if _, ok := st2.Checkpoint(jw.SpecHash); !ok {
		t.Fatal("aborted run left no checkpoint")
	}
	pending := 0
	for _, jr := range st2.Jobs() {
		if jr.Pending() {
			pending++
		}
	}
	if pending != 1 {
		t.Fatalf("store has %d pending jobs after abort, want 1", pending)
	}

	s2 := New(Config{Workers: 1, Store: st2, CheckpointEvery: 2})
	ts2 := httptest.NewServer(s2)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		_ = s2.Shutdown(ctx)
		ts2.Close()
		st2.Close()
	})

	// Same job ID: the restart re-enqueued the accepted job, not a copy.
	final := waitFor(t, ts2, jw.ID, 60*time.Second, terminal)
	if final.State != StateDone {
		t.Fatalf("resumed job ended %s (%s)", final.State, final.Error)
	}
	if final.Cached {
		t.Fatal("resumed job was served from cache, not resumed")
	}
	if got := marshalWireFront(t, final.Front); string(got) != string(want) {
		t.Fatal("resumed front differs from uninterrupted run")
	}
	if _, ok := st2.Checkpoint(jw.SpecHash); ok {
		t.Fatal("finished run left its checkpoint behind")
	}
}

// TestResultCacheSurvivesRestart checks done fronts and terminal job
// records are re-served by the next incarnation with zero client-visible
// loss.
func TestResultCacheSurvivesRestart(t *testing.T) {
	spec := JobSpec{App: "sobel", Method: "fcclr", Pop: 16, Gens: 4, Seed: 7}
	dir := t.TempDir()
	st := openTestStore(t, dir)
	s1 := New(Config{Workers: 1, Store: st})
	ts1 := httptest.NewServer(s1)

	jw, code := postJob(t, ts1, spec)
	if code != 202 {
		t.Fatalf("submit: %d %s", code, jw.Error)
	}
	done := waitFor(t, ts1, jw.ID, 30*time.Second, terminal)
	if done.State != StateDone {
		t.Fatalf("job ended %s (%s)", done.State, done.Error)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_ = s1.Shutdown(ctx)
	ts1.Close()
	st.Close()

	st2 := openTestStore(t, dir)
	s2 := New(Config{Workers: 1, Store: st2})
	ts2 := httptest.NewServer(s2)
	t.Cleanup(func() {
		sctx, scancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer scancel()
		_ = s2.Shutdown(sctx)
		ts2.Close()
		st2.Close()
	})

	// The finished job is still addressable, front included.
	got := getJob(t, ts2, jw.ID)
	if got.State != StateDone || got.Front == nil {
		t.Fatalf("recovered job = %s, front %v", got.State, got.Front != nil)
	}
	if string(marshalWireFront(t, got.Front)) != string(marshalWireFront(t, done.Front)) {
		t.Fatal("recovered front differs from the one served before restart")
	}

	// An identical resubmission hits the rehydrated cache without running.
	dup, code := postJob(t, ts2, spec)
	if code != 200 {
		t.Fatalf("resubmit after restart: %d %s", code, dup.Error)
	}
	if !dup.Cached || dup.State != StateDone {
		t.Fatalf("resubmission not served from persistent cache: %+v", dup)
	}
	if dup.ID == jw.ID {
		t.Fatal("resubmission reused the recovered job's ID")
	}
	if string(marshalWireFront(t, dup.Front)) != string(marshalWireFront(t, done.Front)) {
		t.Fatal("cached front differs across restart")
	}
}

// TestUserCancelIsDurable checks a client DELETE (unlike a shutdown abort)
// is journaled as terminal: the restarted daemon neither re-runs the job
// nor keeps its checkpoint.
func TestUserCancelIsDurable(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	s1 := New(Config{Workers: 1, Store: st, CheckpointEvery: 2})
	ts1 := httptest.NewServer(s1)

	spec := JobSpec{App: "sobel", Method: "fcclr", Pop: 16, Gens: 50000, Seed: 3}
	jw, code := postJob(t, ts1, spec)
	if code != 202 {
		t.Fatalf("submit: %d %s", code, jw.Error)
	}
	waitFor(t, ts1, jw.ID, 30*time.Second, func(w *JobWire) bool {
		return w.Progress != nil && w.Progress.Generation >= 4
	})
	cancelJob(t, ts1, jw.ID)
	final := waitFor(t, ts1, jw.ID, 10*time.Second, terminal)
	if final.State != StateCancelled {
		t.Fatalf("job ended %s", final.State)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_ = s1.Shutdown(ctx)
	ts1.Close()
	st.Close()

	st2 := openTestStore(t, dir)
	defer st2.Close()
	for _, jr := range st2.Jobs() {
		if jr.ID == jw.ID && jr.Pending() {
			t.Fatal("cancelled job is still pending in the store")
		}
	}
	if _, ok := st2.Checkpoint(jw.SpecHash); ok {
		t.Fatal("cancelled job kept its checkpoint")
	}
	s2 := New(Config{Workers: 1, Store: st2})
	ts2 := httptest.NewServer(s2)
	t.Cleanup(func() {
		sctx, scancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer scancel()
		_ = s2.Shutdown(sctx)
		ts2.Close()
	})
	if got := getJob(t, ts2, jw.ID); got.State != StateCancelled {
		t.Fatalf("recovered cancelled job reports %s", got.State)
	}
}

// TestInflightDedupe checks a second submission of an identical spec
// attaches to the first job instead of queueing duplicate work.
func TestInflightDedupe(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	spec := JobSpec{App: "sobel", Method: "fcclr", Pop: 16, Gens: 50000, Seed: 9}
	first, code := postJob(t, ts, spec)
	if code != 202 {
		t.Fatalf("submit: %d %s", code, first.Error)
	}
	second, code := postJob(t, ts, spec)
	if code != 202 {
		t.Fatalf("duplicate submit: %d %s", code, second.Error)
	}
	if second.ID != first.ID {
		t.Fatalf("duplicate got its own job %s, want %s", second.ID, first.ID)
	}
	// A different seed is different work — no dedupe.
	other, code := postJob(t, ts, JobSpec{App: "sobel", Method: "fcclr", Pop: 16, Gens: 50000, Seed: 10})
	if code != 202 || other.ID == first.ID {
		t.Fatalf("distinct spec deduped: %d %+v", code, other)
	}
	m := getMetrics(t, ts)
	if m.Jobs.Deduped != 1 {
		t.Fatalf("deduped counter = %d, want 1", m.Jobs.Deduped)
	}
	cancelJob(t, ts, first.ID)
	cancelJob(t, ts, other.ID)

	// Once the job is terminal it no longer captures duplicates.
	waitFor(t, ts, first.ID, 10*time.Second, terminal)
	third, code := postJob(t, ts, spec)
	if code != 202 {
		t.Fatalf("post-terminal submit: %d %s", code, third.Error)
	}
	if third.ID == first.ID {
		t.Fatal("terminal job captured a new submission")
	}
	cancelJob(t, ts, third.ID)
}

// TestMetricsIncludeStoreGauges checks /metrics surfaces the store gauges
// when the service runs durably.
func TestMetricsIncludeStoreGauges(t *testing.T) {
	st := openTestStore(t, t.TempDir())
	s := New(Config{Workers: 1, Store: st})
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		_ = s.Shutdown(ctx)
		ts.Close()
		st.Close()
	})
	spec := JobSpec{App: "sobel", Method: "fcclr", Pop: 16, Gens: 3, Seed: 8}
	jw, code := postJob(t, ts, spec)
	if code != 202 {
		t.Fatalf("submit: %d", code)
	}
	waitFor(t, ts, jw.ID, 30*time.Second, terminal)
	m := getMetrics(t, ts)
	if m.Store == nil {
		t.Fatal("metrics carry no store gauges")
	}
	if m.Store.Appends == 0 || m.Store.Jobs != 1 {
		t.Fatalf("store gauges = %+v", m.Store)
	}
}

// TestRecoverRejectsRemovedSpecField checks a pending job journaled with a
// field JobSpec no longer has: recovery must not run it as a different
// computation under its old hash. It comes back failed with an error
// naming the field, is journaled terminal, loses its checkpoint, and
// never starts.
func TestRecoverRejectsRemovedSpecField(t *testing.T) {
	spec := JobSpec{App: "sobel", Method: "fcclr", Pop: 16, Gens: 4, Seed: 7}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	raw := journaledWith(t, &spec, "surrogate", true)
	dir := t.TempDir()
	st := openTestStore(t, dir)
	const hash = "stored-surrogate-hash"
	if err := st.AcceptJob("j1", hash, raw, time.Now()); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveCheckpoint(hash, json.RawMessage(`{"stages":{}}`)); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2 := openTestStore(t, dir)
	s2 := New(Config{Workers: 1, Store: st2})
	ts2 := httptest.NewServer(s2)
	t.Cleanup(func() {
		sctx, scancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer scancel()
		_ = s2.Shutdown(sctx)
		ts2.Close()
		st2.Close()
	})

	got := getJob(t, ts2, "j1")
	if got.State != StateFailed || !strings.Contains(got.Error, `"surrogate"`) {
		t.Fatalf("recovered job = %s (%q), want failed naming the field", got.State, got.Error)
	}
	if got.StartedAt != nil || got.Progress != nil {
		t.Fatal("recovered job with a removed field ran")
	}
	for _, jr := range st2.Jobs() {
		if jr.ID == "j1" && jr.Pending() {
			t.Fatal("failed recovery left the job pending in the store")
		}
	}
	if _, ok := st2.Checkpoint(hash); ok {
		t.Fatal("failed recovery kept the job's checkpoint")
	}
}

// journaledWith returns the journal form of a normalized spec plus one
// extra top-level field, as a build that still had the field wrote it.
func journaledWith(t *testing.T, spec *JobSpec, field string, v any) json.RawMessage {
	t.Helper()
	blob, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatal(err)
	}
	m[field] = v
	if blob, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	return blob
}

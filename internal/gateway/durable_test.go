package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
)

// referenceFront runs the spec uninterrupted in-process and returns the
// canonical wire-form bytes of its front.
func referenceFront(t *testing.T, spec service.JobSpec) []byte {
	t.Helper()
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	front, err := service.Execute(context.Background(), &spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(service.FrontToWire(front))
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
	spec := service.JobSpec{App: "sobel", Method: "proposed", Pop: 16, Gens: 1200, Seed: 42}
	want := referenceFront(t, spec)

	dir := t.TempDir()
	st := openStore(t, dir)
	s1 := newDaemon(t, Config{Workers: 1, Store: st, CheckpointEvery: 2}, "")
	ts1 := httptest.NewServer(s1)

	jw, resp := submitSpec(t, ts1, "", spec)
	if resp.StatusCode != 202 {
		t.Fatalf("submit: %d %s", resp.StatusCode, jw.Error)
	}
	// Let the run get past a few checkpoints, then pull the plug: an
	// already-expired shutdown context forces the abort path immediately.
	waitFor(t, ts1, "", jw.ID, 30*time.Second, func(w *service.JobWire) bool {
		return w.Progress != nil && w.Progress.Generation >= 4
	})
	s1.Close()
	last := getWire(t, ts1, "", "/v1/jobs/"+jw.ID).Progress
	ts1.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// The aborted job must still be pending with a saved checkpoint —
	// aborts are not terminal states — and shutdown returned only after
	// the run wrote its final one: no generation it reported is lost.
	st2 := openStore(t, dir)
	blob, ok := st2.Checkpoint(jw.SpecHash)
	if !ok {
		t.Fatal("aborted run left no checkpoint")
	}
	var cp struct {
		Stages map[string]struct {
			Generation int `json:"generation"`
		} `json:"stages"`
		Fronts map[string]json.RawMessage `json:"fronts"`
	}
	if err := json.Unmarshal(blob, &cp); err != nil {
		t.Fatal(err)
	}
	if stage, done := cp.Stages[last.Stage], cp.Fronts[last.Stage] != nil; !done && stage.Generation < last.Generation {
		t.Fatalf("checkpoint of stage %s at generation %d, but the job reported %d", last.Stage, stage.Generation, last.Generation)
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

	s2 := newDaemon(t, Config{Workers: 1, Store: st2, CheckpointEvery: 2}, "")

	ts2 := httptest.NewServer(s2)
	t.Cleanup(func() {
		s2.Close()
		ts2.Close()
		st2.Close()
	})

	// Same job ID: the restart re-enqueued the accepted job, not a copy.
	final := waitFor(t, ts2, "", jw.ID, 60*time.Second, terminal)
	if final.State != service.StateDone {
		t.Fatalf("resumed job ended %s (%s)", final.State, final.Error)
	}
	if final.Cached {
		t.Fatal("resumed job was served from cache, not resumed")
	}
	if got := marshalFront(t, final.Front); string(got) != string(want) {
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
	spec := service.JobSpec{App: "sobel", Method: "fcclr", Pop: 16, Gens: 4, Seed: 7}
	dir := t.TempDir()
	st := openStore(t, dir)
	s1 := newDaemon(t, Config{Workers: 1, Store: st}, "")
	ts1 := httptest.NewServer(s1)

	jw, resp := submitSpec(t, ts1, "", spec)
	if resp.StatusCode != 202 {
		t.Fatalf("submit: %d %s", resp.StatusCode, jw.Error)
	}
	done := waitFor(t, ts1, "", jw.ID, 30*time.Second, terminal)
	if done.State != service.StateDone {
		t.Fatalf("job ended %s (%s)", done.State, done.Error)
	}
	s1.Close()
	ts1.Close()
	st.Close()

	st2 := openStore(t, dir)
	s2 := newDaemon(t, Config{Workers: 1, Store: st2}, "")
	ts2 := httptest.NewServer(s2)
	t.Cleanup(func() {
		s2.Close()
		ts2.Close()
		st2.Close()
	})

	// The finished job is still addressable, front included.
	got := getWire(t, ts2, "", "/v1/jobs/"+jw.ID)
	if got.State != service.StateDone || got.Front == nil {
		t.Fatalf("recovered job = %s, front %v", got.State, got.Front != nil)
	}
	if string(marshalFront(t, got.Front)) != string(marshalFront(t, done.Front)) {
		t.Fatal("recovered front differs from the one served before restart")
	}

	// An identical resubmission hits the rehydrated cache without running.
	dup, resp := submitSpec(t, ts2, "", spec)
	if resp.StatusCode != 200 {
		t.Fatalf("resubmit after restart: %d %s", resp.StatusCode, dup.Error)
	}
	if !dup.Cached || dup.State != service.StateDone {
		t.Fatalf("resubmission not served from persistent cache: %+v", dup)
	}
	if dup.ID == jw.ID {
		t.Fatal("resubmission reused the recovered job's ID")
	}
	if string(marshalFront(t, dup.Front)) != string(marshalFront(t, done.Front)) {
		t.Fatal("cached front differs across restart")
	}
}

// TestStoreAnswersAfterEviction checks the store is the daemon's second
// result tier: a repeat whose front the LRU has evicted is answered from
// the store, cached and counted as a cache hit, instead of running again.
func TestStoreAnswersAfterEviction(t *testing.T) {
	st := openStore(t, t.TempDir())
	t.Cleanup(func() { st.Close() })
	_, ts := newTestServer(t, Config{Workers: 1, CacheCap: 1, Store: st})
	specA := service.JobSpec{App: "sobel", Method: "fcclr", Pop: 8, Gens: 2, Seed: 31}
	specB := service.JobSpec{App: "sobel", Method: "fcclr", Pop: 8, Gens: 2, Seed: 32}
	var frontA []byte
	for _, spec := range []service.JobSpec{specA, specB} {
		jw, resp := submitSpec(t, ts, "", spec)
		if resp.StatusCode != 202 {
			t.Fatalf("submit: %d %s", resp.StatusCode, jw.Error)
		}
		done := waitFor(t, ts, "", jw.ID, 30*time.Second, terminal)
		if done.State != service.StateDone {
			t.Fatalf("job ended %s (%s)", done.State, done.Error)
		}
		if frontA == nil {
			frontA = marshalFront(t, done.Front)
		}
	}
	again, resp := submitSpec(t, ts, "", specA)
	if resp.StatusCode != 200 || !again.Cached || again.State != service.StateDone {
		t.Fatalf("evicted repeat = %d %+v, want 200 cached", resp.StatusCode, again)
	}
	if got := marshalFront(t, again.Front); !bytes.Equal(got, frontA) {
		t.Fatalf("stored front differs:\n got %s\nwant %s", got, frontA)
	}
	if m := getMetrics(t, ts); m.Dedup.StoreHits != 1 || m.Dedup.CacheHits != 0 || m.Dedup.Misses != 2 {
		t.Fatalf("dedup counters = %+v, want 1 store hit and 2 misses", m.Dedup)
	}
}

// TestUserCancelIsDurable checks a client DELETE (unlike a shutdown abort)
// is journaled as terminal: the restarted daemon neither re-runs the job
// nor keeps its checkpoint.
func TestUserCancelIsDurable(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	s1 := newDaemon(t, Config{Workers: 1, Store: st, CheckpointEvery: 2}, "")
	ts1 := httptest.NewServer(s1)

	spec := service.JobSpec{App: "sobel", Method: "fcclr", Pop: 16, Gens: 50000, Seed: 3}
	jw, resp := submitSpec(t, ts1, "", spec)
	if resp.StatusCode != 202 {
		t.Fatalf("submit: %d %s", resp.StatusCode, jw.Error)
	}
	waitFor(t, ts1, "", jw.ID, 30*time.Second, func(w *service.JobWire) bool {
		return w.Progress != nil && w.Progress.Generation >= 4
	})
	cancelJob(t, ts1, "", jw.ID)
	final := waitFor(t, ts1, "", jw.ID, 10*time.Second, terminal)
	if final.State != service.StateCancelled {
		t.Fatalf("job ended %s", final.State)
	}
	s1.Close()
	ts1.Close()
	st.Close()

	st2 := openStore(t, dir)
	defer st2.Close()
	for _, jr := range st2.Jobs() {
		if jr.ID == jw.ID && jr.Pending() {
			t.Fatal("cancelled job is still pending in the store")
		}
	}
	if _, ok := st2.Checkpoint(jw.SpecHash); ok {
		t.Fatal("cancelled job kept its checkpoint")
	}
	s2 := newDaemon(t, Config{Workers: 1, Store: st2}, "")
	ts2 := httptest.NewServer(s2)
	t.Cleanup(func() {
		s2.Close()
		ts2.Close()
	})
	if got := getWire(t, ts2, "", "/v1/jobs/"+jw.ID); got.State != service.StateCancelled {
		t.Fatalf("recovered cancelled job reports %s", got.State)
	}
}

// TestInflightDedupe checks a second submission of an identical spec
// attaches to the first job instead of queueing duplicate work.
func TestInflightDedupe(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	spec := service.JobSpec{App: "sobel", Method: "fcclr", Pop: 16, Gens: 50000, Seed: 9}
	first, resp := submitSpec(t, ts, "", spec)
	if resp.StatusCode != 202 {
		t.Fatalf("submit: %d %s", resp.StatusCode, first.Error)
	}
	second, resp := submitSpec(t, ts, "", spec)
	if resp.StatusCode != 202 {
		t.Fatalf("duplicate submit: %d %s", resp.StatusCode, second.Error)
	}
	if second.ID != first.ID {
		t.Fatalf("duplicate got its own job %s, want %s", second.ID, first.ID)
	}
	// A different seed is different work — no dedupe.
	other, resp := submitSpec(t, ts, "", service.JobSpec{App: "sobel", Method: "fcclr", Pop: 16, Gens: 50000, Seed: 10})
	if resp.StatusCode != 202 || other.ID == first.ID {
		t.Fatalf("distinct spec deduped: %d %+v", resp.StatusCode, other)
	}
	m := getMetrics(t, ts)
	if m.Dedup.InflightAttach != 1 {
		t.Fatalf("deduped counter = %d, want 1", m.Dedup.InflightAttach)
	}
	cancelJob(t, ts, "", first.ID)
	cancelJob(t, ts, "", other.ID)

	// Once the job is terminal it no longer captures duplicates.
	waitFor(t, ts, "", first.ID, 10*time.Second, terminal)
	third, resp := submitSpec(t, ts, "", spec)
	if resp.StatusCode != 202 {
		t.Fatalf("post-terminal submit: %d %s", resp.StatusCode, third.Error)
	}
	if third.ID == first.ID {
		t.Fatal("terminal job captured a new submission")
	}
	cancelJob(t, ts, "", third.ID)
}

// TestMetricsIncludeStoreGauges checks /metrics surfaces the store gauges
// when the service runs durably.
func TestMetricsIncludeStoreGauges(t *testing.T) {
	st := openStore(t, t.TempDir())
	s := newDaemon(t, Config{Workers: 1, Store: st}, "")
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		s.Close()
		ts.Close()
		st.Close()
	})
	spec := service.JobSpec{App: "sobel", Method: "fcclr", Pop: 16, Gens: 3, Seed: 8}
	jw, resp := submitSpec(t, ts, "", spec)
	if resp.StatusCode != 202 {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	waitFor(t, ts, "", jw.ID, 30*time.Second, terminal)
	m := getMetrics(t, ts)
	if m.Store == nil {
		t.Fatal("metrics carry no store gauges")
	}
	if m.Store.Appends == 0 || m.Store.Jobs != 1 {
		t.Fatalf("store gauges = %+v", m.Store)
	}
}

// removedSpecFields are service.JobSpec fields of removed features (surrogate
// screening, island mode, plateau termination) and of removed options that
// changed no result (jobs, no_delta), each with a value a build that still
// had the field accepted.
var removedSpecFields = []struct {
	name string
	v    any
}{
	{"surrogate", true},
	{"surrogate_fraction", 0.5},
	{"islands", 2},
	{"migration_every", 2},
	{"migrants", 2},
	{"converge", true},
	{"converge_window", 8},
	{"converge_eps", 1e-3},
	{"jobs", 2},
	{"no_delta", true},
}

// TestRecoverRejectsRemovedSpecField checks a pending job journaled with a
// field service.JobSpec no longer has: recovery must not run it as a different
// computation under its old hash. Each comes back failed with an error
// naming the field, is journaled terminal, loses its checkpoint, and is
// never queued.
func TestRecoverRejectsRemovedSpecField(t *testing.T) {
	spec := service.JobSpec{App: "sobel", Method: "fcclr", Pop: 16, Gens: 4, Seed: 7}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	for _, f := range removedSpecFields {
		t.Run(f.name, func(t *testing.T) {
			raw := journaledWith(t, &spec, f.name, f.v)
			dir := t.TempDir()
			st := openStore(t, dir)
			hash := "stored-" + f.name + "-hash"
			if err := st.AcceptJob("j1", hash, raw, time.Now()); err != nil {
				t.Fatal(err)
			}
			if err := st.SaveCheckpoint(hash, json.RawMessage(`{"stages":{}}`)); err != nil {
				t.Fatal(err)
			}
			st.Close()

			st2 := openStore(t, dir)
			s2 := newDaemon(t, Config{Workers: 1, Store: st2}, "")
			ts2 := httptest.NewServer(s2)
			t.Cleanup(func() {
				s2.Close()
				ts2.Close()
				st2.Close()
			})
			if m := getMetrics(t, ts2); m.Queue.Normal != 0 || m.Leases.Granted != 0 {
				t.Fatalf("recovery queued the job: queue %+v, %d leases", m.Queue, m.Leases.Granted)
			}

			got := getWire(t, ts2, "", "/v1/jobs/"+"j1")
			if got.State != service.StateFailed || !strings.Contains(got.Error, `"`+f.name+`"`) {
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
		})
	}
}

// journaledWith returns the journal form of a normalized spec plus one
// extra top-level field, as a build that still had the field wrote it.
func journaledWith(t *testing.T, spec *service.JobSpec, field string, v any) json.RawMessage {
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

// TestMetricsCounterBlockKeys pins the JSON key paths of the /metrics
// blocks served straight from the counter structs (core.AccelStats,
// moea.SelectionStats, faultmodel.Stats, store.Stats): a renamed, added or
// dropped field changes the wire and must change this list with it.
func TestMetricsCounterBlockKeys(t *testing.T) {
	st := openStore(t, t.TempDir())
	t.Cleanup(func() { st.Close() })
	_, ts := newTestServer(t, Config{Workers: 1, Store: st})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, block := range []string{"eval_accel", "selection", "fault_model", "store"} {
		fields, ok := m[block].(map[string]any)
		if !ok {
			t.Fatalf("/metrics has no %q object", block)
		}
		for k := range fields {
			got = append(got, block+"."+k)
		}
	}
	sort.Strings(got)
	want := []string{
		"eval_accel.delta_full_runs",
		"eval_accel.delta_parent_reuse",
		"eval_accel.delta_prefix_runs",
		"eval_accel.dense_fallbacks",
		"eval_accel.metrics_reused",
		"eval_accel.paired_solves",
		"eval_accel.plan_compiles",
		"eval_accel.screen_estimated",
		"eval_accel.screen_fallbacks",
		"eval_accel.screen_solved",
		"eval_accel.solo_solves",
		"fault_model.checkpoint_policies",
		"fault_model.evals",
		"fault_model.perm_chains",
		"selection.archive_ns",
		"selection.sort_ns",
		"store.appends",
		"store.checkpoints",
		"store.compactions",
		"store.jobs",
		"store.pending_jobs",
		"store.results",
		"store.syncs",
		"store.torn_bytes_truncated",
		"store.wal_bytes",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("/metrics counter key paths:\n got %q\nwant %q", got, want)
	}
}

package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/store"
)

// openTestStore opens a store in dir with the fast fsync policy.
func openTestStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func newTestTable(cacheCap int, st *store.Store) *Table[*Job] {
	return NewTable("t", cacheCap, st, func(j *Job) ([]byte, error) { return json.Marshal(&j.Spec) })
}

func self(j *Job) *Job { return j }

func accept(*Job) error { return nil }

// recoverSelf is the decode of a table whose jobs journal their bare spec.
func recoverSelf(raw json.RawMessage) (json.RawMessage, func(*Job) *Job, bool) {
	return raw, self, true
}

// specN is a distinct spec per n, with its own hash.
func specN(n int) (JobSpec, string) {
	return JobSpec{Seed: int64(n)}, fmt.Sprintf("h%d", n)
}

// TestTableRoutingOrder checks a submission is resolved by the cheapest
// source first: an identical job in flight, then the LRU, then the store,
// and only then a new queued job.
func TestTableRoutingOrder(t *testing.T) {
	st := openTestStore(t, t.TempDir())
	defer st.Close()
	tb := newTestTable(1, st)
	fronts := map[string]*FrontWire{"h1": {Evaluations: 1}, "h2": {Evaluations: 2}}
	steps := []struct {
		n      int
		want   Route
		finish bool // finish the queued job done with its front
	}{
		{1, Queued, false},
		{1, Attached, true},
		{1, CacheHit, false},
		{2, Queued, true}, // evicts h1 from the one-front LRU
		{1, StoreHit, false},
		{1, CacheHit, false}, // the store hit was added to the LRU
		{3, Queued, false},
	}
	for i, s := range steps {
		spec, hash := specN(s.n)
		j, w, route, err := tb.Submit(spec, hash, self, accept)
		if err != nil || route != s.want {
			t.Fatalf("step %d (%s): route %d, err %v; want route %d", i, hash, route, err, s.want)
		}
		if w.ID != j.ID {
			t.Fatalf("step %d: reply for %s, job is %s", i, w.ID, j.ID)
		}
		if route == CacheHit || route == StoreHit {
			if w.State != StateDone || !w.Cached || w.Front.Evaluations != fronts[hash].Evaluations {
				t.Fatalf("step %d: hit answered %+v", i, w)
			}
		}
		if s.finish && !tb.Finish(j, StateDone, "", fronts[hash]) {
			t.Fatalf("step %d: Finish reported the job already ended", i)
		}
	}
}

// TestTableRecovery checks a table rebuilt from its store continues the
// ID counter past the highest recovered ID, indexes the pending jobs, and
// gives a done job its front from the store rather than the LRU.
func TestTableRecovery(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	tb := newTestTable(1, st)
	spec1, h1 := specN(1)
	j1, _, _, _ := tb.Submit(spec1, h1, self, accept)
	tb.Finish(j1, StateDone, "", &FrontWire{Evaluations: 11})
	spec2, h2 := specN(2)
	tb.Submit(spec2, h2, self, accept) // left pending
	spec9, h9 := specN(9)
	raw, _ := json.Marshal(&spec9)
	if err := st.AcceptJob("t000009", h9, raw, time.Now()); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st = openTestStore(t, dir)
	defer st.Close()
	tb = newTestTable(1, st)
	pending := tb.Recover(recoverSelf)
	if len(pending) != 2 || pending[0].ID != "t000002" || pending[1].ID != "t000009" {
		t.Fatalf("pending = %v, want t000002 and t000009 in acceptance order", pending)
	}
	if n := tb.CacheLen(); n != 0 {
		t.Fatalf("recovery preloaded %d fronts into the LRU", n)
	}
	got, ok := tb.Get("t000001")
	if w := got.Wire(true); !ok || w.State != StateDone || w.Front == nil || w.Front.Evaluations != 11 {
		t.Fatalf("recovered done job = %+v, want done with its stored front", w)
	}
	if j, _, route, _ := tb.Submit(spec2, h2, self, accept); route != Attached || j != pending[0] {
		t.Fatalf("pending spec routed %d to %s, want attached to t000002", route, j.ID)
	}
	spec3, h3 := specN(3)
	if j, _, _, _ := tb.Submit(spec3, h3, self, accept); j.ID != "t000010" {
		t.Fatalf("new job ID %s, want t000010", j.ID)
	}
}

// TestTableRefusedEnqueue checks a refused miss leaves no ID gap, no job
// and no in-flight entry behind.
func TestTableRefusedEnqueue(t *testing.T) {
	tb := newTestTable(4, nil)
	spec, hash := specN(1)
	full := errors.New("full")
	if _, _, route, err := tb.Submit(spec, hash, self, func(*Job) error { return full }); route != Refused || !errors.Is(err, full) {
		t.Fatalf("refused submit: route %d, err %v", route, err)
	}
	if n := len(tb.Jobs()); n != 0 {
		t.Fatalf("refused submit left %d jobs", n)
	}
	j, _, route, err := tb.Submit(spec, hash, self, accept)
	if route != Queued || err != nil || j.ID != "t000001" {
		t.Fatalf("resubmit: route %d, ID %s, err %v; want queued t000001", route, j.ID, err)
	}
}

// TestTableEndFreesHash checks a failed or cancelled job leaves the
// in-flight index, so resubmitting its spec runs again, and that Cancel
// asks a running job to stop instead of ending it.
func TestTableEndFreesHash(t *testing.T) {
	for _, end := range []struct {
		name string
		end  func(*Table[*Job], *Job) bool
	}{
		{"failed", func(tb *Table[*Job], j *Job) bool { return tb.Finish(j, StateFailed, "boom", nil) }},
		{"cancelled", func(tb *Table[*Job], j *Job) bool { return tb.Cancel(j, nil) }},
	} {
		t.Run(end.name, func(t *testing.T) {
			tb := newTestTable(4, nil)
			spec, hash := specN(1)
			j, _, _, _ := tb.Submit(spec, hash, self, accept)
			if !end.end(tb, j) {
				t.Fatal("the queued job did not end")
			}
			again, _, route, _ := tb.Submit(spec, hash, self, accept)
			if route != Queued || again == j {
				t.Fatalf("resubmit after %s: route %d, want a new queued job", end.name, route)
			}
		})
	}

	tb := newTestTable(4, nil)
	spec, hash := specN(1)
	j, _, _, _ := tb.Submit(spec, hash, self, accept)
	j.Lock()
	j.State = StateRunning
	j.Unlock()
	stopped := false
	if tb.Cancel(j, func(*Job) { stopped = true }) || !stopped {
		t.Fatalf("Cancel of a running job: ended it or did not stop it (stopped %t)", stopped)
	}
	if dup, _, route, _ := tb.Submit(spec, hash, self, accept); route != Attached || dup != j {
		t.Fatalf("running job left the index: route %d", route)
	}
}

// TestTableAcceptBeforeFinish checks a miss's accept record reaches the
// store before its finish, even when the job is finished from another
// goroutine the moment it is enqueued: the store drops a finish for an
// unknown job, which would lose the front and bring the job back pending.
func TestTableAcceptBeforeFinish(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	tb := newTestTable(4, st)
	spec, hash := specN(1)
	finished := make(chan struct{})
	j, _, route, err := tb.Submit(spec, hash, self, func(j *Job) error {
		go func() {
			defer close(finished)
			tb.Finish(j, StateDone, "", &FrontWire{Evaluations: 7})
		}()
		return nil
	})
	if route != Queued || err != nil {
		t.Fatalf("submit: route %d, err %v", route, err)
	}
	<-finished
	st.Close()

	st = openTestStore(t, dir)
	defer st.Close()
	jobs := st.Jobs()
	if len(jobs) != 1 || jobs[0].ID != j.ID || jobs[0].State != StateDone {
		t.Fatalf("stored jobs = %+v, want %s done", jobs, j.ID)
	}
	if _, ok := st.Result(hash); !ok {
		t.Fatal("the finished front was not stored")
	}
}

// TestTableSubmitReplyQueued checks a new job's submission reply reads
// queued even when a worker starts the job the moment it is enqueued: the
// reply is the status taken before the job's lock is released, not a read
// made after the worker may have run. Run it under -race.
func TestTableSubmitReplyQueued(t *testing.T) {
	tb := newTestTable(4, nil)
	spec, hash := specN(1)
	started := make(chan struct{})
	j, w, route, err := tb.Submit(spec, hash, self, func(j *Job) error {
		go func() {
			defer close(started)
			j.Lock()
			j.State, j.Started = StateRunning, time.Now()
			j.Unlock()
		}()
		return nil
	})
	if route != Queued || err != nil {
		t.Fatalf("submit: route %d, err %v", route, err)
	}
	<-started
	if w.State != StateQueued || w.StartedAt != nil {
		t.Fatalf("reply = %+v, want queued and not started", w)
	}
	if now := j.Wire(false); now.State != StateRunning {
		t.Fatalf("the worker did not start the job: %s", now.State)
	}
}

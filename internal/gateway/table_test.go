package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/store"
)

// newTestTable makes a table over st (nil: none) whose queue holds up to
// queueCap jobs, and an owner for its submissions with maxActive slots
// (-1: unlimited).
func newTestTable(cacheCap, queueCap, maxActive int, st *store.Store) (*jobTable, *tenant) {
	return newJobTable(cacheCap, st, newWorkQueue(queueCap)), newTenant(TenantConfig{Name: "t1", MaxActive: maxActive})
}

// specN is a distinct spec per n, with its own hash.
func specN(n int) (service.JobSpec, string) {
	return service.JobSpec{Seed: int64(n)}, fmt.Sprintf("h%d", n)
}

// nextQueued waits for the next job pushed onto q and pops it, as a
// leasing worker does.
func nextQueued(q *workQueue) *job {
	for {
		wake := q.awaitC()
		if j := q.pop(); j != nil {
			return j
		}
		<-wake
	}
}

// TestTableRoutingOrder checks a submission is resolved by the cheapest
// source first: an identical job in flight, then the LRU, then the store,
// and only then a new queued job.
func TestTableRoutingOrder(t *testing.T) {
	st := openStore(t, t.TempDir())
	defer st.Close()
	tb, owner := newTestTable(1, 100, -1, st)
	fronts := map[string]*service.FrontWire{"h1": {Evaluations: 1}, "h2": {Evaluations: 2}}
	steps := []struct {
		n      int
		want   route
		finish bool // finish the queued job done with its front
	}{
		{1, enqueued, false},
		{1, attached, true},
		{1, cacheHit, false},
		{2, enqueued, true}, // evicts h1 from the one-front LRU
		{1, storeHit, false},
		{1, cacheHit, false}, // the store hit was added to the LRU
		{3, enqueued, false},
	}
	for i, s := range steps {
		spec, hash := specN(s.n)
		j, w, r, err := tb.submit(owner, spec, hash)
		if err != nil || r != s.want {
			t.Fatalf("step %d (%s): route %d, err %v; want route %d", i, hash, r, err, s.want)
		}
		if w.ID != j.ID {
			t.Fatalf("step %d: reply for %s, job is %s", i, w.ID, j.ID)
		}
		if r == cacheHit || r == storeHit {
			if w.State != service.StateDone || !w.Cached || w.Front.Evaluations != fronts[hash].Evaluations {
				t.Fatalf("step %d: hit answered %+v", i, w)
			}
		}
		if s.finish && !tb.finish(j, service.StateDone, "", fronts[hash]) {
			t.Fatalf("step %d: finish reported the job already ended", i)
		}
	}
}

// TestTableRecovery checks a gateway rebuilt from its store continues the
// ID counter past the highest recovered ID, queues and indexes the
// pending jobs in acceptance order, and gives a done job its front from
// the store rather than the LRU.
func TestTableRecovery(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	tb, owner := newTestTable(1, 100, -1, st)
	spec1, h1 := specN(1)
	j1, _, _, _ := tb.submit(owner, spec1, h1)
	tb.finish(j1, service.StateDone, "", &service.FrontWire{Evaluations: 11})
	spec2, h2 := specN(2)
	tb.submit(owner, spec2, h2) // left pending
	spec9, h9 := specN(9)
	raw, _ := json.Marshal(&spec9)
	if err := st.AcceptJob("g000009", h9, raw, time.Now()); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st = openStore(t, dir)
	defer st.Close()
	g, err := New(Config{Tenants: []TenantConfig{{Name: "t1", Key: "k", MaxActive: -1}}, CacheCap: 1, Store: st, ProbeEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	var pending []*job
	for j := g.queue.pop(); j != nil; j = g.queue.pop() {
		pending = append(pending, j)
	}
	if len(pending) != 2 || pending[0].ID != "g000002" || pending[1].ID != "g000009" {
		t.Fatalf("queued %d jobs, want g000002 and g000009 in acceptance order", len(pending))
	}
	if pending[1].tenant.cfg.Name != "t1" {
		t.Fatalf("the bare-spec job recovered under tenant %q, want the one tenant t1", pending[1].tenant.cfg.Name)
	}
	if n := g.jobs.cacheLen(); n != 0 {
		t.Fatalf("recovery preloaded %d fronts into the LRU", n)
	}
	got := g.jobs.get("g000001")
	if got == nil {
		t.Fatal("the done job was not recovered")
	}
	if w := got.wire(true); w.State != service.StateDone || w.Front == nil || w.Front.Evaluations != 11 {
		t.Fatalf("recovered done job = %+v, want done with its stored front", w)
	}
	owner = g.byName["t1"]
	if j, _, r, _ := g.jobs.submit(owner, spec2, h2); r != attached || j != pending[0] {
		t.Fatalf("pending spec routed %d to %s, want attached to g000002", r, j.ID)
	}
	spec3, h3 := specN(3)
	if j, _, _, _ := g.jobs.submit(owner, spec3, h3); j.ID != "g000010" {
		t.Fatalf("new job ID %s, want g000010", j.ID)
	}
}

// TestTableRefusedEnqueue checks a miss the queue or the quota refuses
// leaves no ID gap, no job and no in-flight entry behind.
func TestTableRefusedEnqueue(t *testing.T) {
	tb, owner := newTestTable(4, 1, 2, nil)
	spec1, h1 := specN(1)
	spec2, h2 := specN(2)
	spec3, h3 := specN(3)
	if _, _, r, err := tb.submit(owner, spec1, h1); r != enqueued || err != nil {
		t.Fatalf("first submit: route %d, err %v", r, err)
	}
	if _, _, r, _ := tb.submit(owner, spec2, h2); r != queueFull {
		t.Fatalf("submit to a full queue: route %d, want queueFull", r)
	}
	tb.queue.pop()
	j, _, r, err := tb.submit(owner, spec2, h2)
	if r != enqueued || err != nil || j.ID != "g000002" {
		t.Fatalf("resubmit: route %d, ID %s, err %v; want enqueued g000002", r, j.ID, err)
	}
	tb.queue.pop()
	if _, _, r, _ := tb.submit(owner, spec3, h3); r != overQuota {
		t.Fatalf("submit over the quota: route %d, want overQuota", r)
	}
	if n := len(tb.list()); n != 2 {
		t.Fatalf("refused submits left %d jobs, want 2", n)
	}
	if _, _, r, _ := tb.submit(owner, spec3, h3); r != overQuota {
		t.Fatalf("the refused spec was indexed: route %d, want overQuota", r)
	}
}

// TestTableEndFreesHash checks a failed or cancelled job leaves the
// in-flight index, so resubmitting its spec runs again, and that cancel
// asks a running job to stop instead of ending it.
func TestTableEndFreesHash(t *testing.T) {
	for _, end := range []struct {
		name string
		end  func(*jobTable, *job) bool
	}{
		{"failed", func(tb *jobTable, j *job) bool { return tb.finish(j, service.StateFailed, "boom", nil) }},
		{"cancelled", func(tb *jobTable, j *job) bool { return tb.cancel(j) }},
	} {
		t.Run(end.name, func(t *testing.T) {
			tb, owner := newTestTable(4, 100, -1, nil)
			spec, hash := specN(1)
			j, _, _, _ := tb.submit(owner, spec, hash)
			if !end.end(tb, j) {
				t.Fatal("the queued job did not end")
			}
			again, _, r, _ := tb.submit(owner, spec, hash)
			if r != enqueued || again == j {
				t.Fatalf("resubmit after %s: route %d, want a new queued job", end.name, r)
			}
		})
	}

	tb, owner := newTestTable(4, 100, -1, nil)
	spec, hash := specN(1)
	j, _, _, _ := tb.submit(owner, spec, hash)
	j.Lock()
	j.State = service.StateRunning
	j.Unlock()
	if tb.cancel(j) || !j.cancelReq {
		t.Fatalf("cancel of a running job: ended it or did not ask it to stop (cancelReq %t)", j.cancelReq)
	}
	if dup, _, r, _ := tb.submit(owner, spec, hash); r != attached || dup != j {
		t.Fatalf("running job left the index: route %d", r)
	}
}

// TestTableAcceptBeforeFinish checks a miss's accept record reaches the
// store before its finish, even when a worker finishes the job the moment
// it is enqueued: the store drops a finish for an unknown job, which
// would lose the front and bring the job back pending.
func TestTableAcceptBeforeFinish(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	tb, owner := newTestTable(4, 100, -1, st)
	spec, hash := specN(1)
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tb.finish(nextQueued(tb.queue), service.StateDone, "", &service.FrontWire{Evaluations: 7})
	}()
	j, _, r, err := tb.submit(owner, spec, hash)
	if r != enqueued || err != nil {
		t.Fatalf("submit: route %d, err %v", r, err)
	}
	<-finished
	st.Close()

	st = openStore(t, dir)
	defer st.Close()
	jobs := st.Jobs()
	if len(jobs) != 1 || jobs[0].ID != j.ID || jobs[0].State != service.StateDone {
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
	tb, owner := newTestTable(4, 100, -1, nil)
	spec, hash := specN(1)
	started := make(chan struct{})
	go func() {
		defer close(started)
		j := nextQueued(tb.queue)
		j.Lock()
		j.State, j.Started = service.StateRunning, time.Now()
		j.Unlock()
	}()
	j, w, r, err := tb.submit(owner, spec, hash)
	if r != enqueued || err != nil {
		t.Fatalf("submit: route %d, err %v", r, err)
	}
	<-started
	if w.State != service.StateQueued || w.StartedAt != nil {
		t.Fatalf("reply = %+v, want queued and not started", w)
	}
	if now := j.wire(false); now.State != service.StateRunning {
		t.Fatalf("the worker did not start the job: %s", now.State)
	}
}

func TestLRUCache(t *testing.T) {
	c := newFrontCache(2)
	f1, f2, f3 := &service.FrontWire{Evaluations: 1}, &service.FrontWire{Evaluations: 2}, &service.FrontWire{Evaluations: 3}
	c.add("a", f1)
	c.add("b", f2)
	if _, ok := c.get("a"); !ok {
		t.Fatal("a evicted prematurely")
	}
	// a is now most recent; adding c must evict b.
	c.add("c", f3)
	if _, ok := c.get("b"); ok {
		t.Fatal("b should have been evicted as least recently used")
	}
	if got, ok := c.get("a"); !ok || got != f1 {
		t.Fatal("a lost")
	}
	if got, ok := c.get("c"); !ok || got != f3 {
		t.Fatal("c lost")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
	// Re-adding an existing key refreshes in place without growing.
	c.add("a", f2)
	if got, _ := c.get("a"); got != f2 {
		t.Fatal("refresh did not replace the value")
	}
	if c.len() != 2 {
		t.Fatalf("len after refresh = %d, want 2", c.len())
	}
}

// tableSizes are the sizes of every structure the job lifecycle keeps per
// job, result or worker.
type tableSizes struct {
	jobs, order, ended, active, lru, storeJobs, storeResults, workers int
}

func (g *Gateway) sizes() tableSizes {
	t := g.jobs
	t.mu.Lock()
	s := tableSizes{jobs: len(t.jobs), order: len(t.order), ended: len(t.ended), active: len(t.active), lru: t.cache.len()}
	t.mu.Unlock()
	st := g.cfg.Store.Stats()
	s.storeJobs, s.storeResults = st.Jobs, st.Results
	g.mu.Lock()
	s.workers = len(g.workers)
	g.mu.Unlock()
	return s
}

// settled waits until no job is queued or running, and returns the
// sizes and the live heap after a collection.
func (g *Gateway) settled(t *testing.T) (tableSizes, uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for g.sizes().active > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("jobs still in flight after 30s: %+v", g.sizes())
		}
		time.Sleep(time.Millisecond)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return g.sizes(), ms.HeapAlloc
}

// TestJobTableSoak submits 20,000 jobs (2,000 under -short) through the
// handler of a durable gateway with two in-process agents: nine in ten
// are cached repeats, one in ten a fresh tiny spec that runs. Past the
// warm-up (the first quarter, and past the cap on terminal records) no
// structure the lifecycle keeps may grow, and the live heap may grow by
// at most a quarter plus 2 MiB. The full count took 2.5 s on 2 vCPUs.
func TestJobTableSoak(t *testing.T) {
	n := 20000
	if testing.Short() {
		n = 2000
	}
	warm := max(n/4, store.DefaultMaxTerminalJobs+100)
	st, err := store.Open(t.TempDir(), store.Options{Sync: store.SyncNever, MaxResults: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	g, _ := newTestGateway(t, Config{
		Tenants:    []TenantConfig{{Name: "t1", Key: "key1", MaxActive: -1}},
		QueueCap:   n,
		CacheCap:   64,
		Store:      st,
		ProbeEvery: -1,
		Workers:    2,
	})
	tiny := func(seed int) []byte {
		body, err := json.Marshal(service.JobSpec{App: "sobel", Method: "fcclr", Pop: 4, Gens: 1, Seed: int64(seed)})
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	repeats := [][]byte{tiny(1), tiny(2), tiny(3), tiny(4)}
	submit := func(body []byte, want int) {
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
		req.Header.Set("X-API-Key", "key1")
		rec := httptest.NewRecorder()
		g.ServeHTTP(rec, req)
		if rec.Code != want {
			t.Fatalf("submit = %d (%s), want %d", rec.Code, rec.Body, want)
		}
	}
	for _, body := range repeats {
		submit(body, http.StatusAccepted)
	}
	g.settled(t)

	var atWarm tableSizes
	var heapAtWarm uint64
	for i := 0; i < n; i++ {
		if i == warm {
			atWarm, heapAtWarm = g.settled(t)
		}
		if i%10 == 0 {
			submit(tiny(1000+i), http.StatusAccepted)
		} else {
			submit(repeats[i%len(repeats)], http.StatusOK)
		}
	}
	end, heap := g.settled(t)
	if end.jobs > atWarm.jobs || end.order > atWarm.order || end.ended > atWarm.ended || end.active > atWarm.active ||
		end.lru > atWarm.lru || end.storeJobs > atWarm.storeJobs || end.storeResults > atWarm.storeResults || end.workers > atWarm.workers {
		t.Fatalf("sizes grew after %d submissions: %+v, then %+v after %d", warm, atWarm, end, n)
	}
	if bound := heapAtWarm + heapAtWarm/4 + 2<<20; heap > bound {
		t.Fatalf("live heap grew from %d to %d bytes after %d submissions, bound %d", heapAtWarm, heap, warm, bound)
	}
	t.Logf("sizes %+v; live heap %d → %d bytes", end, heapAtWarm, heap)
}

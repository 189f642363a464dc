package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/store"
)

// testTenant is the default single-tenant table: effectively unlimited, so
// tests exercise the control plane rather than admission.
func testTenant() TenantConfig {
	return TenantConfig{Name: "t1", Key: "key1", RatePerSec: 1000, Burst: 1000, MaxActive: -1, Priority: "normal"}
}

func newTestGateway(t *testing.T, cfg Config) (*Gateway, *httptest.Server) {
	t.Helper()
	if cfg.Tenants == nil {
		cfg.Tenants = []TenantConfig{testTenant()}
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(g)
	t.Cleanup(func() { ts.Close(); g.Close() })
	return g, ts
}

func submitSpec(t *testing.T, ts *httptest.Server, key string, spec service.JobSpec) (*service.JobWire, *http.Response) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-API-Key", key)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jw service.JobWire
	_ = json.NewDecoder(resp.Body).Decode(&jw)
	return &jw, resp
}

func getWire(t *testing.T, ts *httptest.Server, key, path string) *service.JobWire {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-API-Key", key)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", path, resp.StatusCode)
	}
	var jw service.JobWire
	if err := json.NewDecoder(resp.Body).Decode(&jw); err != nil {
		t.Fatal(err)
	}
	return &jw
}

func startAgent(t *testing.T, cfg AgentConfig) *Agent {
	t.Helper()
	if cfg.PollTimeout == 0 {
		cfg.PollTimeout = 100 * time.Millisecond
	}
	a, err := NewAgent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); a.Run(ctx) }()
	t.Cleanup(func() { cancel(); <-done })
	return a
}

func waitDone(t *testing.T, ts *httptest.Server, key, id string, within time.Duration) *service.JobWire {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		jw := getWire(t, ts, key, "/v1/jobs/"+id+"/wait?timeout=2s")
		switch jw.State {
		case service.StateDone:
			return jw
		case service.StateFailed, service.StateCancelled:
			t.Fatalf("job %s reached %s (%s)", id, jw.State, jw.Error)
		}
	}
	t.Fatalf("job %s not done within %s", id, within)
	return nil
}

// TestFleetWorkerDeath is the control plane's crash drill: three real
// in-process workers serve a fleet, the one holding the lease is killed
// mid-run, and the job must re-enqueue via lease expiry, complete on a
// survivor, and produce a front byte-identical to a single-node run of
// the same spec — the determinism contract that makes redelivery safe.
func TestFleetWorkerDeath(t *testing.T) {
	g, ts := newTestGateway(t, Config{
		WorkerToken: "wtok",
		LeaseTTL:    300 * time.Millisecond,
		ProbeEvery:  -1,
	})

	// The victim claims the job first and then hangs until killed.
	claimed := make(chan struct{}, 1)
	victim := startAgent(t, AgentConfig{
		Gateway: ts.URL, Token: "wtok", Name: "victim",
		Exec: func(ctx context.Context, s *service.JobSpec, progress func(core.ProgressEvent)) (*core.Front, error) {
			select {
			case claimed <- struct{}{}:
			default:
			}
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})

	spec := service.JobSpec{App: "sobel", Method: "fcclr", Pop: 16, Gens: 3, Seed: 42}
	jw, resp := submitSpec(t, ts, "key1", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", resp.StatusCode)
	}

	select {
	case <-claimed:
	case <-time.After(10 * time.Second):
		t.Fatal("victim never claimed the job")
	}
	victim.Kill() // SIGKILL stand-in: no completion, no lease release

	// Two healthy survivors running the real solver.
	for i := 0; i < 2; i++ {
		startAgent(t, AgentConfig{Gateway: ts.URL, Token: "wtok", Name: fmt.Sprintf("w%d", i)})
	}

	final := waitDone(t, ts, "key1", jw.ID, 60*time.Second)
	if final.Front == nil {
		t.Fatal("done job carries no front")
	}

	// Byte-identical to a single-node run at the same seed.
	ref := spec
	if err := ref.Normalize(); err != nil {
		t.Fatal(err)
	}
	front, err := service.Execute(context.Background(), &ref, func(core.ProgressEvent) {})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(service.FrontToWire(front))
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(final.Front)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fleet front differs from single-node run:\n got %s\nwant %s", got, want)
	}

	if n := g.m.leasesExpired.Load(); n < 1 {
		t.Fatalf("leasesExpired = %d, want >= 1 (the victim's lease must have been reclaimed)", n)
	}
	if n := g.m.leasesGranted.Load(); n < 2 {
		t.Fatalf("leasesGranted = %d, want >= 2 (victim + survivor)", n)
	}
}

// TestTenantAdmission tables the 429 paths: token-bucket rate, active-job
// quota and queue backpressure — each must answer 429 with a Retry-After
// hint — plus the 401s and the rule that dedup does not burn quota.
func TestTenantAdmission(t *testing.T) {
	specA := service.JobSpec{App: "sobel", Method: "fcclr", Pop: 8, Gens: 2, Seed: 1}
	specB := service.JobSpec{App: "sobel", Method: "fcclr", Pop: 8, Gens: 2, Seed: 2}

	check429 := func(t *testing.T, resp *http.Response) {
		t.Helper()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("status = %d, want 429", resp.StatusCode)
		}
		ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
		if err != nil || ra < 1 {
			t.Fatalf("Retry-After = %q, want a positive integer", resp.Header.Get("Retry-After"))
		}
	}

	t.Run("rate limit", func(t *testing.T) {
		_, ts := newTestGateway(t, Config{Tenants: []TenantConfig{
			{Name: "slow", Key: "k", RatePerSec: 0.5, Burst: 1, MaxActive: -1},
		}, ProbeEvery: -1})
		if _, resp := submitSpec(t, ts, "k", specA); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("first submit = %d, want 202", resp.StatusCode)
		}
		_, resp := submitSpec(t, ts, "k", specB)
		check429(t, resp)
	})

	t.Run("quota", func(t *testing.T) {
		_, ts := newTestGateway(t, Config{Tenants: []TenantConfig{
			{Name: "quota", Key: "k", RatePerSec: 1000, MaxActive: 1},
		}, ProbeEvery: -1})
		if _, resp := submitSpec(t, ts, "k", specA); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("first submit = %d, want 202", resp.StatusCode)
		}
		_, resp := submitSpec(t, ts, "k", specB)
		check429(t, resp)
	})

	t.Run("dedup does not burn quota", func(t *testing.T) {
		_, ts := newTestGateway(t, Config{Tenants: []TenantConfig{
			{Name: "quota", Key: "k", RatePerSec: 1000, MaxActive: 1},
		}, ProbeEvery: -1})
		if _, resp := submitSpec(t, ts, "k", specA); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("first submit = %d, want 202", resp.StatusCode)
		}
		// Same spec again: attaches to the in-flight job, no new slot.
		jw, resp := submitSpec(t, ts, "k", specA)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("duplicate submit = %d, want 202", resp.StatusCode)
		}
		if jw.State != service.StateQueued {
			t.Fatalf("duplicate attached to state %q, want queued", jw.State)
		}
	})

	t.Run("backpressure", func(t *testing.T) {
		_, ts := newTestGateway(t, Config{QueueCap: 1, ProbeEvery: -1})
		if _, resp := submitSpec(t, ts, "key1", specA); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("first submit = %d, want 202", resp.StatusCode)
		}
		_, resp := submitSpec(t, ts, "key1", specB)
		check429(t, resp)
	})

	t.Run("unknown key", func(t *testing.T) {
		_, ts := newTestGateway(t, Config{ProbeEvery: -1})
		if _, resp := submitSpec(t, ts, "nope", specA); resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("unknown key = %d, want 401", resp.StatusCode)
		}
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader([]byte("{}")))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("no key = %d, want 401", resp.StatusCode)
		}
	})

	t.Run("tenant isolation", func(t *testing.T) {
		_, ts := newTestGateway(t, Config{Tenants: []TenantConfig{
			{Name: "a", Key: "ka", RatePerSec: 1000, MaxActive: -1},
			{Name: "b", Key: "kb", RatePerSec: 1000, MaxActive: -1},
		}, ProbeEvery: -1})
		jw, resp := submitSpec(t, ts, "ka", specA)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit = %d, want 202", resp.StatusCode)
		}
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+jw.ID, nil)
		req.Header.Set("X-API-Key", "kb")
		other, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		other.Body.Close()
		if other.StatusCode != http.StatusNotFound {
			t.Fatalf("cross-tenant GET = %d, want 404", other.StatusCode)
		}
	})
}

// TestSharedResultCache checks all three dedup tiers: in-flight attach,
// the LRU after completion, and the WAL-backed store across a gateway
// restart — the "fleet shares one logical result cache" property.
func TestSharedResultCache(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	g1, ts1 := newTestGateway(t, Config{WorkerToken: "wtok", Store: st, ProbeEvery: -1})
	startAgent(t, AgentConfig{Gateway: ts1.URL, Token: "wtok", Name: "w0"})

	spec := service.JobSpec{App: "sobel", Method: "fcclr", Pop: 8, Gens: 2, Seed: 7}
	jw, resp := submitSpec(t, ts1, "key1", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", resp.StatusCode)
	}
	first := waitDone(t, ts1, "key1", jw.ID, 30*time.Second)

	// Second submission: served from the LRU with the identical front.
	cached, resp := submitSpec(t, ts1, "key1", spec)
	if resp.StatusCode != http.StatusOK || !cached.Cached {
		t.Fatalf("resubmit = %d cached=%t, want 200 cached", resp.StatusCode, cached.Cached)
	}
	if g1.m.cacheHits.Load() == 0 {
		t.Fatal("no cache hit recorded")
	}

	// Restart the gateway on the same store: the front must survive.
	ts1.Close()
	g1.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(dir, store.Options{Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st2.Close() })
	_, ts2 := newTestGateway(t, Config{WorkerToken: "wtok", Store: st2, ProbeEvery: -1})

	again, resp := submitSpec(t, ts2, "key1", spec)
	if resp.StatusCode != http.StatusOK || !again.Cached {
		t.Fatalf("post-restart resubmit = %d cached=%t, want 200 cached", resp.StatusCode, again.Cached)
	}
	w1, _ := json.Marshal(first.Front)
	w2, _ := json.Marshal(again.Front)
	if !bytes.Equal(w1, w2) {
		t.Fatalf("front changed across restart:\n got %s\nwant %s", w2, w1)
	}
}

// TestWeightedFairDequeue drains a mixed backlog and checks the stride
// scheduler hands out leases in roughly the 6:3:1 class proportions.
func TestWeightedFairDequeue(t *testing.T) {
	q := newWorkQueue(100)
	for i := 0; i < 20; i++ {
		q.push(&gwJob{class: classHigh})
		q.push(&gwJob{class: classNormal})
		q.push(&gwJob{class: classLow})
	}
	counts := [numClasses]int{}
	for i := 0; i < 20; i++ {
		j := q.pop()
		if j == nil {
			t.Fatal("queue drained early")
		}
		counts[j.class]++
	}
	// 20 dequeues at 6:3:1 → 12/6/2.
	if counts[classHigh] != 12 || counts[classNormal] != 6 || counts[classLow] != 2 {
		t.Fatalf("dequeue mix = %v, want [12 6 2]", counts)
	}
}

// TestCancelQueued cancels a queued job and checks no worker can lease it.
func TestCancelQueued(t *testing.T) {
	g, ts := newTestGateway(t, Config{ProbeEvery: -1})
	jw, resp := submitSpec(t, ts, "key1", service.JobSpec{App: "sobel", Method: "fcclr", Pop: 8, Gens: 2, Seed: 99})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+jw.ID, nil)
	req.Header.Set("X-API-Key", "key1")
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel = %d, want 202", dresp.StatusCode)
	}
	if grant := g.tryLease("w"); grant != nil {
		t.Fatalf("cancelled job %s still leased out", grant.JobID)
	}
	if got := getWire(t, ts, "key1", "/v1/jobs/"+jw.ID); got.State != service.StateCancelled {
		t.Fatalf("state = %q, want cancelled", got.State)
	}
}

// TestRemovedSpecField covers the gateway's side of a removed JobSpec
// field: a submission that sets it is a 400, and a pending job journaled
// with it before the removal recovers failed, with its checkpoint dropped
// and without ever being leased.
func TestRemovedSpecField(t *testing.T) {
	// The journal form of a normalized spec, as a build that still had
	// the surrogate fields wrote it.
	spec := service.JobSpec{App: "sobel", Method: "fcclr", Pop: 8, Gens: 2, Seed: 7}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(&spec)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]any
	if err := json.Unmarshal(blob, &fields); err != nil {
		t.Fatal(err)
	}
	fields["surrogate"], fields["surrogate_fraction"] = true, 0.5
	if blob, err = json.Marshal(fields); err != nil {
		t.Fatal(err)
	}
	rec, err := json.Marshal(storedJob{Tenant: "t1", Spec: blob})
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir(), store.Options{Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	const hash = "stored-surrogate-hash"
	if err := st.AcceptJob("g1", hash, rec, time.Now()); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveCheckpoint(hash, json.RawMessage(`{"stages":{}}`)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	g, ts := newTestGateway(t, Config{Store: st, ProbeEvery: -1})

	got := getWire(t, ts, "key1", "/v1/jobs/g1")
	if got.State != service.StateFailed || !strings.Contains(got.Error, "surrogate") {
		t.Fatalf("recovered job = %s (%q), want failed naming the field", got.State, got.Error)
	}
	if got.StartedAt != nil || g.queue.pop() != nil {
		t.Fatal("recovered job with a removed field was queued or ran")
	}
	if _, ok := st.Checkpoint(hash); ok {
		t.Fatal("failed recovery kept the job's checkpoint")
	}

	for _, raw := range []string{`{"surrogate":true}`, `{"surrogate_fraction":0.5}`} {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-API-Key", "key1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("submit %s = %d, want 400", raw, resp.StatusCode)
		}
	}
}

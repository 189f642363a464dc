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

// newDaemon is what clrearlyd serves without -gateway: a gateway with
// in-process agents (one unless cfg sets Workers) and one tenant keyed by
// token (open when empty), which is also the worker token. clrearlyd
// serves it behind RequireBearer(token, g). The caller closes it.
func newDaemon(t *testing.T, cfg Config, token string) *Gateway {
	t.Helper()
	cfg.Tenants = []TenantConfig{{Name: "clrearlyd", Key: token, MaxActive: -1}}
	cfg.WorkerToken = token
	cfg.Workers = max(cfg.Workers, 1)
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// newTestServer serves an open daemon and wires teardown: closing the
// gateway stops whatever still runs within one generation.
func newTestServer(t *testing.T, cfg Config) (*Gateway, *httptest.Server) {
	t.Helper()
	g := newDaemon(t, cfg, "")
	ts := httptest.NewServer(g)
	t.Cleanup(func() { ts.Close(); g.Close() })
	return g, ts
}

// submitSpec posts spec with the API key (none when empty). The reply of
// a refused submission carries the error message in its Error.
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

// getWire reads a job status from path, failing the test unless it
// answers 200.
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

// cancelJob asks for the job's cancellation and returns the reply.
func cancelJob(t *testing.T, ts *httptest.Server, key, id string) *service.JobWire {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-API-Key", key)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE %s = %d, want 202", id, resp.StatusCode)
	}
	var jw service.JobWire
	if err := json.NewDecoder(resp.Body).Decode(&jw); err != nil {
		t.Fatal(err)
	}
	return &jw
}

func getMetrics(t *testing.T, ts *httptest.Server) *MetricsWire {
	t.Helper()
	_, body := get(t, ts, "/metrics")
	var m MetricsWire
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	return &m
}

// waitFor polls the job until cond holds and returns its status. It fails
// the test at the deadline, and at once when the job ended without cond
// holding: a terminal status never changes.
func waitFor(t *testing.T, ts *httptest.Server, key, id string, within time.Duration, cond func(*service.JobWire) bool) *service.JobWire {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		jw := getWire(t, ts, key, "/v1/jobs/"+id)
		if cond(jw) {
			return jw
		}
		if terminal(jw) {
			t.Fatalf("job %s ended %s (%s) without meeting the condition", id, jw.State, jw.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s: condition not met within %s; last state %+v", id, within, jw)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func terminal(jw *service.JobWire) bool {
	switch jw.State {
	case service.StateDone, service.StateFailed, service.StateCancelled:
		return true
	}
	return false
}

func isDone(jw *service.JobWire) bool { return jw.State == service.StateDone }

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

// mixedSpecs is one small Sobel spec per kind of run the job API serves:
// the three system-level methods and a single-layer run.
func mixedSpecs() []service.JobSpec {
	var specs []service.JobSpec
	for i, method := range []string{"fcclr", "pfclr", "proposed", "layer-hwrel"} {
		specs = append(specs, service.JobSpec{App: "sobel", Method: method, Pop: 16, Gens: 3, Seed: int64(42 + i)})
	}
	return specs
}

// submitAll puts every spec in flight at once and returns the job IDs in
// spec order.
func submitAll(t *testing.T, ts *httptest.Server, key string, specs []service.JobSpec) []string {
	t.Helper()
	ids := make([]string, len(specs))
	for i, spec := range specs {
		jw, resp := submitSpec(t, ts, key, spec)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %s = %d, want 202", spec.Method, resp.StatusCode)
		}
		ids[i] = jw.ID
	}
	return ids
}

// requireLocalFronts waits for every job and requires its front to be
// byte-identical to a single-node run of the same spec.
func requireLocalFronts(t *testing.T, ts *httptest.Server, key string, specs []service.JobSpec, ids []string) {
	t.Helper()
	for i, spec := range specs {
		final := waitFor(t, ts, key, ids[i], 60*time.Second, isDone)
		if final.Front == nil {
			t.Fatalf("%s: done job carries no front", spec.Method)
		}
		if got, want := marshalFront(t, final.Front), referenceFront(t, spec); !bytes.Equal(got, want) {
			t.Fatalf("%s: fleet front differs from single-node run:\n got %s\nwant %s", spec.Method, got, want)
		}
	}
}

// startVictim starts an agent that claims one job and then hangs until
// it is killed. The returned channel fires once it holds a lease.
func startVictim(t *testing.T, cfg AgentConfig) (*Agent, <-chan struct{}) {
	t.Helper()
	claimed := make(chan struct{}, 1)
	cfg.Name = "victim"
	cfg.Exec = func(ctx context.Context, s *service.JobSpec, progress func(core.ProgressEvent)) (*core.Front, error) {
		select {
		case claimed <- struct{}{}:
		default:
		}
		<-ctx.Done()
		return nil, ctx.Err()
	}
	return startAgent(t, cfg), claimed
}

// awaitClaim blocks until the victim holds a lease, then kills it: the
// SIGKILL stand-in sends no completion and releases no lease.
func awaitClaim(t *testing.T, victim *Agent, claimed <-chan struct{}) {
	t.Helper()
	select {
	case <-claimed:
	case <-time.After(10 * time.Second):
		t.Fatal("victim never claimed a job")
	}
	victim.Kill()
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
	victim, claimed := startVictim(t, AgentConfig{Gateway: ts.URL, Token: "wtok"})

	specs := []service.JobSpec{{App: "sobel", Method: "fcclr", Pop: 16, Gens: 3, Seed: 42}}
	ids := submitAll(t, ts, "key1", specs)
	awaitClaim(t, victim, claimed)

	// Two healthy survivors running the real solver.
	for i := 0; i < 2; i++ {
		startAgent(t, AgentConfig{Gateway: ts.URL, Token: "wtok", Name: fmt.Sprintf("w%d", i)})
	}
	requireLocalFronts(t, ts, "key1", specs, ids)

	if n := g.m.leasesExpired.Load(); n < 1 {
		t.Fatalf("leasesExpired = %d, want >= 1 (the victim's lease must have been reclaimed)", n)
	}
	if n := g.m.leasesGranted.Load(); n < 2 {
		t.Fatalf("leasesGranted = %d, want >= 2 (victim + survivor)", n)
	}
}

// TestClientSweepMatchesLocal: a sweep of mixed methods, submitted over
// the job API all at once, runs every job on the two remote agents and
// returns the fronts of single-node runs.
func TestClientSweepMatchesLocal(t *testing.T) {
	g, ts := newTestGateway(t, Config{ProbeEvery: -1})
	for _, name := range []string{"w0", "w1"} {
		startAgent(t, AgentConfig{Gateway: ts.URL, Name: name})
	}
	specs := mixedSpecs()
	requireLocalFronts(t, ts, "key1", specs, submitAll(t, ts, "key1", specs))
	if n := g.m.leasesGranted.Load(); n < int64(len(specs)) {
		t.Fatalf("leasesGranted = %d, want >= %d", n, len(specs))
	}
}

// TestClientSweepSurvivesKilledAgent: the agent holding the first lease
// of a mixed sweep is killed mid-run; its lease expires, the job is
// redelivered to a survivor, and every job still returns the front of a
// single-node run.
func TestClientSweepSurvivesKilledAgent(t *testing.T) {
	g, ts := newTestGateway(t, Config{LeaseTTL: 300 * time.Millisecond, ProbeEvery: -1})
	victim, claimed := startVictim(t, AgentConfig{Gateway: ts.URL})

	specs := mixedSpecs()
	ids := submitAll(t, ts, "key1", specs)
	awaitClaim(t, victim, claimed)

	for _, name := range []string{"w0", "w1"} {
		startAgent(t, AgentConfig{Gateway: ts.URL, Name: name})
	}
	requireLocalFronts(t, ts, "key1", specs, ids)

	if n := g.m.leasesExpired.Load(); n < 1 {
		t.Fatalf("leasesExpired = %d, want >= 1 (the victim's lease must have been reclaimed)", n)
	}
	if n := g.m.leasesGranted.Load(); n < int64(len(specs))+1 {
		t.Fatalf("leasesGranted = %d, want >= %d (victim + one per job)", n, len(specs)+1)
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
	st := openStore(t, dir)
	g1, ts1 := newTestGateway(t, Config{WorkerToken: "wtok", Store: st, ProbeEvery: -1})
	startAgent(t, AgentConfig{Gateway: ts1.URL, Token: "wtok", Name: "w0"})

	spec := service.JobSpec{App: "sobel", Method: "fcclr", Pop: 8, Gens: 2, Seed: 7}
	jw, resp := submitSpec(t, ts1, "key1", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", resp.StatusCode)
	}
	first := waitFor(t, ts1, "key1", jw.ID, 30*time.Second, isDone)

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
	st2 := openStore(t, dir)
	t.Cleanup(func() { st2.Close() })
	_, ts2 := newTestGateway(t, Config{WorkerToken: "wtok", Store: st2, ProbeEvery: -1})

	again, resp := submitSpec(t, ts2, "key1", spec)
	if resp.StatusCode != http.StatusOK || !again.Cached {
		t.Fatalf("post-restart resubmit = %d cached=%t, want 200 cached", resp.StatusCode, again.Cached)
	}
	if w1, w2 := marshalFront(t, first.Front), marshalFront(t, again.Front); !bytes.Equal(w1, w2) {
		t.Fatalf("front changed across restart:\n got %s\nwant %s", w2, w1)
	}
}

// TestWeightedFairDequeue drains a mixed backlog and checks the stride
// scheduler hands out leases in roughly the 6:3:1 class proportions.
func TestWeightedFairDequeue(t *testing.T) {
	q := newWorkQueue(100)
	for i := 0; i < 20; i++ {
		q.push(&job{class: classHigh})
		q.push(&job{class: classNormal})
		q.push(&job{class: classLow})
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
	cancelJob(t, ts, "key1", jw.ID)
	if grant := g.tryLease("w"); grant != nil {
		t.Fatalf("cancelled job %s still leased out", grant.JobID)
	}
	if got := getWire(t, ts, "key1", "/v1/jobs/"+jw.ID); got.State != service.StateCancelled {
		t.Fatalf("state = %q, want cancelled", got.State)
	}
}

// TestRemovedSpecField covers the gateway's side of the JobSpec fields of
// removed features (surrogate screening, island mode, plateau
// termination) and options (jobs, no_delta): a submission that sets one is a 400, and a pending job
// journaled with one before the removal recovers failed, naming the field,
// with its checkpoint dropped and without ever being queued or leased.
func TestRemovedSpecField(t *testing.T) {
	spec := service.JobSpec{App: "sobel", Method: "fcclr", Pop: 8, Gens: 2, Seed: 7}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	for _, f := range removedSpecFields {
		t.Run(f.name, func(t *testing.T) {
			blob := journaledWith(t, &spec, f.name, f.v)
			rec, err := json.Marshal(storedJob{Tenant: "t1", Spec: blob})
			if err != nil {
				t.Fatal(err)
			}
			st := openStore(t, t.TempDir())
			hash := "stored-" + f.name + "-hash"
			if err := st.AcceptJob("g1", hash, rec, time.Now()); err != nil {
				t.Fatal(err)
			}
			if err := st.SaveCheckpoint(hash, json.RawMessage(`{"stages":{}}`)); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { st.Close() })
			g, ts := newTestGateway(t, Config{Store: st, ProbeEvery: -1})

			got := getWire(t, ts, "key1", "/v1/jobs/g1")
			if got.State != service.StateFailed || !strings.Contains(got.Error, `"`+f.name+`"`) {
				t.Fatalf("recovered job = %s (%q), want failed naming the field", got.State, got.Error)
			}
			if got.StartedAt != nil || g.queue.pop() != nil {
				t.Fatal("recovered job with a removed field was queued or ran")
			}
			if _, ok := st.Checkpoint(hash); ok {
				t.Fatal("failed recovery kept the job's checkpoint")
			}

			req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(blob))
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
				t.Fatalf("submit %s = %d, want 400", blob, resp.StatusCode)
			}
		})
	}
}

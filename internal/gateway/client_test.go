package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/store"
)

func clientSpec(t *testing.T, method string, seed int64) *service.JobSpec {
	t.Helper()
	s := &service.JobSpec{App: "sobel", Method: method, Pop: 10, Gens: 3, Seed: seed}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	return s
}

// localRun is a cell's ground-truth closure, counting its calls.
func localRun(spec *service.JobSpec, calls *atomic.Int64) func() (*core.Front, error) {
	return func() (*core.Front, error) {
		calls.Add(1)
		return service.Execute(context.Background(), spec, nil)
	}
}

// frontBytes is the wire encoding of a front: equal bytes mean equal
// evaluation counts, point order, objectives and QoS, bit for bit.
func frontBytes(t *testing.T, f *core.Front) []byte {
	t.Helper()
	if f == nil {
		t.Fatal("nil front")
	}
	blob, err := json.Marshal(service.FrontToWire(f))
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func newClient(t *testing.T, rawURL string) *Client {
	t.Helper()
	c, err := NewClient(rawURL)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// withKey puts an API key into a base URL's userinfo.
func withKey(base, key string) string { return strings.Replace(base, "://", "://"+key+"@", 1) }

// flakyServer is an in-process clrearlyd behind a fixed URL that can be
// killed (502 to everything, running jobs aborted as if the process died)
// and revived from its factory — a factory over a shared store yields a
// durable server that resumes its jobs.
type flakyServer struct {
	srv     *httptest.Server
	factory func() *service.Server
	submits atomic.Int64

	mu    sync.Mutex
	inner *service.Server
}

func newFlakyServer(t *testing.T, factory func() *service.Server) *flakyServer {
	t.Helper()
	f := &flakyServer{factory: factory, inner: factory()}
	f.srv = httptest.NewServer(f)
	t.Cleanup(func() { f.kill(); f.srv.Close() })
	return f
}

func (f *flakyServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	inner := f.inner
	f.mu.Unlock()
	if inner == nil {
		http.Error(w, "server down", http.StatusBadGateway)
		return
	}
	if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
		f.submits.Add(1)
	}
	inner.ServeHTTP(w, r)
}

func (f *flakyServer) kill() {
	f.mu.Lock()
	inner := f.inner
	f.inner = nil
	f.mu.Unlock()
	if inner != nil {
		expired, cancel := context.WithCancel(context.Background())
		cancel()
		inner.Shutdown(expired)
	}
}

func (f *flakyServer) revive() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.inner == nil {
		f.inner = f.factory()
	}
}

func TestClientUnreachableFallsBackToLocal(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	c := newClient(t, dead.URL)

	for i, method := range []string{"fcclr", "proposed"} {
		spec := clientSpec(t, method, int64(100+i))
		want, err := service.Execute(context.Background(), spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		var calls atomic.Int64
		got, err := c.Run(context.Background(), spec, localRun(spec, &calls))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(frontBytes(t, got), frontBytes(t, want)) {
			t.Fatalf("%s: fallback front differs from the local run", method)
		}
	}
	if remote, local := c.Counts(); remote != 0 || local != 2 {
		t.Fatalf("counts = %d remote, %d local; want 0, 2", remote, local)
	}
}

func TestClientRejectedSpecRunsLocal(t *testing.T) {
	f := newFlakyServer(t, func() *service.Server { return service.New(service.Config{}) })
	c := newClient(t, f.srv.URL)

	// The server rejects the spec with 400; the local closure reproduces
	// the canonical error.
	bad := &service.JobSpec{Method: "bogus"}
	_, err := c.Run(context.Background(), bad, func() (*core.Front, error) {
		local := *bad
		if err := local.Normalize(); err != nil {
			return nil, err
		}
		return service.Execute(context.Background(), &local, nil)
	})
	if err == nil || !strings.Contains(err.Error(), "unknown method") {
		t.Fatalf("err = %v, want the canonical unknown-method error", err)
	}
	if n := f.submits.Load(); n != 1 {
		t.Fatalf("submits = %d, want exactly 1", n)
	}
	if remote, local := c.Counts(); remote != 0 || local != 1 {
		t.Fatalf("counts = %d remote, %d local; want 0, 1", remote, local)
	}
}

// TestDurableWorkerRestartResumesSameJob: a durable server killed mid-run
// and revived behind the same URL re-enqueues and resumes the job under
// the same ID, and the client rides the outage out on its long-poll — one
// submit, no fallback, and a front byte-identical to an uninterrupted
// local run.
func TestDurableWorkerRestartResumesSameJob(t *testing.T) {
	// The budget must be large enough that the kill lands mid-evolution:
	// the GA clears hundreds of sobel generations per second, and the
	// kill only fires after the first durable checkpoint is observed.
	spec := clientSpec(t, "proposed", 21)
	spec.Pop, spec.Gens = 16, 1200
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	want, err := service.Execute(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}

	st, err := store.Open(t.TempDir(), store.Options{Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	f := newFlakyServer(t, func() *service.Server {
		return service.New(service.Config{Workers: 2, Store: st, CheckpointEvery: 2})
	})
	c := newClient(t, f.srv.URL)

	// Kill the server once the run has a durable checkpoint to resume
	// from, keep it dark across a few client retries, then revive it on
	// the same store.
	runDone := make(chan struct{})
	killDone := make(chan error, 1)
	go func() {
		deadline := time.Now().Add(30 * time.Second)
		for st.Stats().Checkpoints == 0 {
			select {
			case <-runDone:
				killDone <- context.Canceled // the run finished before the kill
				return
			default:
			}
			if time.Now().After(deadline) {
				killDone <- context.DeadlineExceeded
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		f.kill()
		time.Sleep(200 * time.Millisecond)
		f.revive()
		killDone <- nil
	}()

	var calls atomic.Int64
	got, err := c.Run(context.Background(), spec, localRun(spec, &calls))
	close(runDone)
	if kerr := <-killDone; kerr != nil {
		t.Fatalf("kill never landed mid-run: %v", kerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frontBytes(t, got), frontBytes(t, want)) {
		t.Fatal("resumed front differs from the uninterrupted local run")
	}
	if n := f.submits.Load(); n != 1 {
		t.Fatalf("server saw %d submits, want 1", n)
	}
	if remote, local := c.Counts(); remote != 1 || local != 0 {
		t.Fatalf("counts = %d remote, %d local; want 1, 0", remote, local)
	}
	// The resumed run finished, so its checkpoint is gone.
	if n := st.Stats().Checkpoints; n != 0 {
		t.Fatalf("store still holds %d checkpoints after the resumed run finished", n)
	}
}

// TestClientWaitsOutQuota: with a one-job quota, the second of two
// concurrent cells gets 429, waits out its Retry-After and still runs
// remotely.
func TestClientWaitsOutQuota(t *testing.T) {
	g, ts := newTestGateway(t, Config{
		Tenants:    []TenantConfig{{Name: "t1", Key: "key1", MaxActive: 1}},
		ProbeEvery: -1,
	})
	// The first job holds the quota until the second submit has been
	// turned away, so the 429 path runs every time.
	startAgent(t, AgentConfig{
		Gateway: ts.URL, Name: "w0",
		Exec: func(ctx context.Context, s *service.JobSpec, progress func(core.ProgressEvent)) (*core.Front, error) {
			for g.m.rejectedQuota.Load() == 0 {
				time.Sleep(5 * time.Millisecond)
			}
			return service.Execute(ctx, s, progress)
		},
	})
	c := newClient(t, withKey(ts.URL, "key1"))

	specs := []*service.JobSpec{clientSpec(t, "fcclr", 7), clientSpec(t, "pfclr", 8)}
	got := make([]*core.Front, len(specs))
	var calls atomic.Int64
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f, err := c.Run(context.Background(), spec, localRun(spec, &calls))
			if err != nil {
				t.Error(err)
			}
			got[i] = f
		}()
	}
	wg.Wait()
	for i, spec := range specs {
		want, err := service.Execute(context.Background(), spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(frontBytes(t, got[i]), frontBytes(t, want)) {
			t.Fatalf("%s: remote front differs from the local run", spec.Method)
		}
	}
	if remote, local := c.Counts(); remote != 2 || local != 0 {
		t.Fatalf("counts = %d remote, %d local; want 2, 0", remote, local)
	}
	if n := g.m.rejectedQuota.Load(); n < 1 {
		t.Fatalf("quota rejections = %d, want >= 1", n)
	}
}

// TestClientBadKeyIsAnError: a 401 ends the run with an error naming the
// URL; the local closure never runs.
func TestClientBadKeyIsAnError(t *testing.T) {
	_, ts := newTestGateway(t, Config{ProbeEvery: -1})
	c := newClient(t, withKey(ts.URL, "wrong-key"))

	spec := clientSpec(t, "fcclr", 1)
	var calls atomic.Int64
	_, err := c.Run(context.Background(), spec, localRun(spec, &calls))
	if err == nil || !strings.Contains(err.Error(), ts.URL) || strings.Contains(err.Error(), "wrong-key") {
		t.Fatalf("err = %v, want a 401 error naming %s without the key", err, ts.URL)
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("local closure ran %d times after a 401", n)
	}
	if remote, local := c.Counts(); remote != 0 || local != 0 {
		t.Fatalf("counts = %d remote, %d local; want 0, 0", remote, local)
	}
}

func TestNormalizeURL(t *testing.T) {
	cases := map[string]string{
		"localhost:8080":          "http://localhost:8080",
		" http://a:1/ ":           "http://a:1",
		"https://b.example":       "https://b.example",
		"":                        "",
		"  ":                      "",
		"http://c.example/base//": "http://c.example/base",
	}
	for in, want := range cases {
		if got := normalizeURL(in); got != want {
			t.Errorf("normalizeURL(%q) = %q, want %q", in, got, want)
		}
	}
}

// sweepSpecs is a small mixed-method sweep.
func sweepSpecs(t *testing.T) []*service.JobSpec {
	t.Helper()
	var specs []*service.JobSpec
	for i, method := range []string{"fcclr", "pfclr", "proposed", "fcclr"} {
		specs = append(specs, clientSpec(t, method, int64(200+i)))
	}
	return specs
}

// runSweep resolves every spec through c concurrently, as runCells does,
// and requires each front to be byte-identical to an in-process run and
// no local closure to have run.
func runSweep(t *testing.T, c *Client, specs []*service.JobSpec) {
	t.Helper()
	got := make([]*core.Front, len(specs))
	var calls atomic.Int64
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f, err := c.Run(context.Background(), spec, localRun(spec, &calls))
			if err != nil {
				t.Error(err)
			}
			got[i] = f
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i, spec := range specs {
		want, err := service.Execute(context.Background(), spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(frontBytes(t, got[i]), frontBytes(t, want)) {
			t.Fatalf("cell %d (%s): remote front differs from the local run", i, spec.Method)
		}
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("local closures ran %d times, want 0", n)
	}
	if remote, local := c.Counts(); remote != int64(len(specs)) || local != 0 {
		t.Fatalf("counts = %d remote, %d local; want %d, 0", remote, local, len(specs))
	}
}

// TestClientSweepMatchesLocal: a sweep through a gateway with two agents
// runs every cell remotely and yields the fronts of the local run.
func TestClientSweepMatchesLocal(t *testing.T) {
	g, ts := newTestGateway(t, Config{ProbeEvery: -1})
	for _, name := range []string{"w0", "w1"} {
		startAgent(t, AgentConfig{Gateway: ts.URL, Name: name})
	}
	specs := sweepSpecs(t)
	runSweep(t, newClient(t, withKey(ts.URL, "key1")), specs)
	if n := g.m.leasesGranted.Load(); n < int64(len(specs)) {
		t.Fatalf("leasesGranted = %d, want >= %d", n, len(specs))
	}
}

// TestClientSweepSurvivesKilledAgent: the agent holding the first lease
// is killed mid-run; its lease expires, the job is redelivered to a
// survivor, and the sweep still runs every cell remotely with the fronts
// of the local run.
func TestClientSweepSurvivesKilledAgent(t *testing.T) {
	g, ts := newTestGateway(t, Config{LeaseTTL: 300 * time.Millisecond, ProbeEvery: -1})
	claimed := make(chan struct{}, 1)
	victim := startAgent(t, AgentConfig{
		Gateway: ts.URL, Name: "victim",
		Exec: func(ctx context.Context, s *service.JobSpec, progress func(core.ProgressEvent)) (*core.Front, error) {
			select {
			case claimed <- struct{}{}:
			default:
			}
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})
	// Two survivors start once the victim is killed.
	var survivors []*Agent
	for _, name := range []string{"w0", "w1"} {
		a, err := NewAgent(AgentConfig{Gateway: ts.URL, Name: name, PollTimeout: 100 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		survivors = append(survivors, a)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var running sync.WaitGroup
	running.Add(len(survivors))
	t.Cleanup(func() { cancel(); running.Wait() })
	go func() {
		select {
		case <-claimed:
			victim.Kill()
		case <-ctx.Done():
		}
		for _, a := range survivors {
			go func() { defer running.Done(); a.Run(ctx) }()
		}
	}()
	runSweep(t, newClient(t, withKey(ts.URL, "key1")), sweepSpecs(t))
	if n := g.m.leasesExpired.Load(); n < 1 {
		t.Fatalf("leasesExpired = %d, want >= 1 (the victim's lease must have been reclaimed)", n)
	}
}

// TestClientRetriesTransientWaitFailure: 5xx answers on the long-poll are
// retried with backoff until the job's result comes through — one
// submit, no fallback, and the front of the local run.
func TestClientRetriesTransientWaitFailure(t *testing.T) {
	inner := service.New(service.Config{})
	t.Cleanup(func() { inner.Shutdown(context.Background()) })
	const outages = 3
	var submits, failed atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
			submits.Add(1)
		}
		if strings.HasSuffix(r.URL.Path, "/wait") && failed.Add(1) <= outages {
			http.Error(w, "upstream unavailable", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	c := newClient(t, srv.URL)

	spec := clientSpec(t, "fcclr", 321)
	want, err := service.Execute(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	got, err := c.Run(context.Background(), spec, localRun(spec, &calls))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frontBytes(t, got), frontBytes(t, want)) {
		t.Fatal("retried front differs from the local run")
	}
	if n := failed.Load(); n <= outages {
		t.Fatalf("%d wait calls, want more than the %d failed ones", n, outages)
	}
	if n := submits.Load(); n != 1 {
		t.Fatalf("submits = %d, want exactly 1", n)
	}
	if remote, local := c.Counts(); remote != 1 || local != 0 {
		t.Fatalf("counts = %d remote, %d local; want 1, 0", remote, local)
	}
}

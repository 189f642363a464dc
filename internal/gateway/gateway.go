// Package gateway is the job service: one HTTP service that owns
// admission, routing, result storage and the job lifecycle, with workers
// that lease the jobs and run them. clrearlygw runs it in front of a fleet
// of `clrearlyd -gateway URL` workers; clrearlyd runs it with its agents
// in process (Config.Workers), so a single daemon and a fleet are one
// lifecycle.
//
// Three mechanisms carry the design:
//
//   - Content-addressed result routing. Jobs are keyed by the existing
//     sha256(normalized spec) hash. A submission is resolved, in order,
//     by attaching to an identical in-flight job, by the gateway-local
//     LRU front cache, by the replicated terminal-result store (a
//     WAL-backed internal/store, so cached fronts survive gateway
//     restarts), and only then by dispatch — the whole fleet shares one
//     logical result cache.
//
//   - Pull-based work distribution. Workers long-poll POST /v1/lease for
//     work instead of having jobs pushed at them. A lease carries a TTL
//     and is renewed by progress reports; a worker that dies mid-lease
//     simply stops renewing, and the expiry loop re-enqueues the job at
//     the head of its class until its delivery budget runs out. Runs are
//     deterministic per spec, so re-execution is always safe.
//
//   - Tenancy and admission control. Every tenant-facing request carries
//     an API key mapping to a tenant with a token-bucket rate limit, an
//     active-job quota and a priority class; the dequeue across classes
//     is weighted-fair. Overload — rate, quota or global queue depth —
//     answers 429 with Retry-After, never an unbounded queue.
//
// The tenant-facing job API (POST/GET/DELETE /v1/jobs, /wait, /events
// SSE) is built from internal/service: gateway jobs embed service.Job and
// live in a service.Table (IDs, routing, result tiers, recovery), and the
// wait, SSE and spec-intake code is internal/service's.
package gateway

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/store"
)

// Config sizes the gateway.
type Config struct {
	// Tenants is the admission-control table; requests whose API key
	// matches no tenant are rejected with 401.
	Tenants []TenantConfig
	// WorkerToken, when non-empty, is the bearer token workers must
	// present on the lease API. Tenant keys never work there, so a tenant
	// cannot lease out (and so observe) other tenants' specs.
	WorkerToken string
	// QueueCap bounds jobs queued fleet-wide (default 256); beyond it
	// submissions get 429 + Retry-After backpressure.
	QueueCap int
	// CacheCap bounds the gateway-local LRU front cache (default 256).
	CacheCap int
	// LeaseTTL is how long a lease survives without a renewal (default
	// 15s). Workers renew implicitly with every progress report.
	LeaseTTL time.Duration
	// MaxDeliveries bounds how many times one job is leased out before it
	// is failed (default 5): a spec that keeps killing workers must not
	// circulate forever.
	MaxDeliveries int
	// Store, when non-nil, makes the control plane durable: admitted jobs
	// are journaled before the 202 ack, terminal fronts become the
	// replicated result store, and a restarted gateway re-enqueues
	// unfinished jobs and re-serves cached fronts.
	Store *store.Store
	// MaxBodyBytes caps tenant request bodies (default 1 MiB).
	MaxBodyBytes int64
	// ProbeEvery is the period of the health probe against workers that
	// advertise an address (default 5s; negative disables). Workers that
	// advertise none are judged by lease traffic alone.
	ProbeEvery time.Duration
	// Client is the HTTP client used for worker probes.
	Client *http.Client
	// Workers, when positive, runs that many agents in this process. They
	// lease over an in-memory transport with WorkerToken (a random one
	// when it is empty, so the lease API is never open) and run specs
	// with service.DurableExecute over Store. /metrics then adds the
	// engine counter blocks and the run latencies, and Close waits for
	// their runs to return.
	Workers int
	// CheckpointEvery is the generation period of the in-process agents'
	// run checkpoints (default core.DefaultCheckpointEvery; with Store).
	CheckpointEvery int
}

func (c Config) withDefaults() Config {
	if c.QueueCap <= 0 {
		c.QueueCap = 256
	}
	if c.CacheCap <= 0 {
		c.CacheCap = 256
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 15 * time.Second
	}
	if c.MaxDeliveries <= 0 {
		c.MaxDeliveries = 5
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.ProbeEvery == 0 {
		c.ProbeEvery = 5 * time.Second
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	return c
}

// Gateway is the control-plane server. Create with New, mount as an
// http.Handler, release with Close.
type Gateway struct {
	cfg     Config
	mux     *http.ServeMux
	queue   *workQueue
	byKey   map[string]*tenant
	byName  map[string]*tenant
	anon    *tenant // owner of jobs recovered under a tenant no longer configured
	m       gwMetrics
	closed  chan struct{}
	loopsWG sync.WaitGroup

	jobs   *service.Table[*gwJob]
	agents []*Agent // the in-process agents

	mu        sync.Mutex // guards leases, workers, nextLease and latency
	leases    map[string]*lease
	workers   map[string]*workerInfo
	nextLease int64
	latency   map[string]*service.Histogram // in-process run latency by method
}

// lease is one outstanding claim of a job by a worker.
type lease struct {
	id      string
	job     *gwJob
	worker  string
	granted time.Time
	expires time.Time
}

// workerInfo is the gateway's view of one leasing worker.
type workerInfo struct {
	name      string
	addr      string // normalized advertised base URL; "" = none
	lastSeen  time.Time
	probedOK  bool // last /healthz probe result (addr-advertising workers)
	probed    bool
	polls     int // lease long-polls in flight
	completed int64
	failed    int64
	expired   int64
}

// New builds a gateway over the tenant table and starts its lease-expiry
// and worker-probe loops.
func New(cfg Config) (*Gateway, error) {
	cfg = cfg.withDefaults()
	if cfg.Workers > 0 && cfg.WorkerToken == "" {
		b := make([]byte, 16)
		if _, err := rand.Read(b); err != nil {
			return nil, err
		}
		cfg.WorkerToken = hex.EncodeToString(b)
	}
	g := &Gateway{
		cfg:     cfg,
		queue:   newWorkQueue(cfg.QueueCap),
		byKey:   make(map[string]*tenant),
		byName:  make(map[string]*tenant),
		closed:  make(chan struct{}),
		jobs:    service.NewTable("g", cfg.CacheCap, cfg.Store, encodeJob),
		leases:  make(map[string]*lease),
		workers: make(map[string]*workerInfo),
		latency: make(map[string]*service.Histogram),
	}
	for _, tc := range cfg.Tenants {
		t := newTenant(tc)
		if _, dup := g.byKey[tc.Key]; dup {
			return nil, fmt.Errorf("gateway: duplicate API key (tenant %q)", tc.Name)
		}
		if _, dup := g.byName[tc.Name]; dup {
			return nil, fmt.Errorf("gateway: duplicate tenant name %q", tc.Name)
		}
		g.byKey[tc.Key] = t
		g.byName[tc.Name] = t
	}
	g.anon = newTenant(TenantConfig{Name: "(recovered)", Key: "", MaxActive: -1})
	g.recover()

	g.mux = http.NewServeMux()
	g.mux.HandleFunc("POST /v1/jobs", g.handleSubmit)
	g.mux.HandleFunc("GET /v1/jobs", g.handleList)
	g.mux.HandleFunc("GET /v1/jobs/{id}", g.handleGet)
	g.mux.HandleFunc("GET /v1/jobs/{id}/wait", g.handleWait)
	g.mux.HandleFunc("GET /v1/jobs/{id}/events", g.handleEvents)
	g.mux.HandleFunc("DELETE /v1/jobs/{id}", g.handleCancel)
	g.mux.HandleFunc("POST /v1/lease", g.workerOnly(g.handleLease))
	g.mux.HandleFunc("POST /v1/lease/{id}/progress", g.workerOnly(g.handleLeaseProgress))
	g.mux.HandleFunc("POST /v1/lease/{id}/renew", g.workerOnly(g.handleLeaseRenew))
	g.mux.HandleFunc("POST /v1/lease/{id}/complete", g.workerOnly(g.handleLeaseComplete))
	g.mux.HandleFunc("GET /healthz", service.HandleHealthz)
	g.mux.HandleFunc("GET /metrics", g.handleMetrics)

	g.loopsWG.Add(1)
	go g.expiryLoop()
	if cfg.ProbeEvery > 0 {
		g.loopsWG.Add(1)
		go g.probeLoop()
	}
	run := service.DurableExecute(cfg.Store, cfg.CheckpointEvery)
	exec := func(ctx context.Context, s *service.JobSpec, progress func(core.ProgressEvent)) (*core.Front, error) {
		start := time.Now()
		front, err := run(ctx, s, progress)
		g.mu.Lock()
		if g.latency[s.Method] == nil {
			g.latency[s.Method] = new(service.Histogram)
		}
		g.latency[s.Method].Observe(float64(time.Since(start)) / float64(time.Millisecond))
		g.mu.Unlock()
		return front, err
	}
	for i := 0; i < cfg.Workers; i++ {
		a, err := NewAgent(AgentConfig{
			Gateway: "http://in-process", Token: cfg.WorkerToken, Name: fmt.Sprintf("local-%d", i),
			Exec: exec, Client: &http.Client{Transport: handlerTransport{g}},
		})
		if err != nil {
			g.Close()
			return nil, err
		}
		g.agents = append(g.agents, a)
		go a.Run(context.Background())
	}
	return g, nil
}

// handlerTransport is an http.RoundTripper that serves each request with
// a handler in process: the in-process agents' link to their gateway.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if err := r.Context().Err(); err != nil {
		return nil, err
	}
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, r)
	return rec.Result(), nil
}

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) { g.mux.ServeHTTP(w, r) }

// Close stops the in-process agents, waiting for their runs to return (a
// stopped run's job stays pending in the store, its final checkpoint
// written, and resumes when a gateway next opens the store), then the
// expiry and probe loops. Outstanding HTTP requests are the http.Server's
// to drain.
func (g *Gateway) Close() {
	for _, a := range g.agents {
		a.Stop()
	}
	select {
	case <-g.closed:
	default:
		close(g.closed)
	}
	g.loopsWG.Wait()
}

// recover rebuilds gateway state from the durable store: finished job
// records keep answering GET /v1/jobs/{id}, and jobs that never finished
// re-enter the queue under their original IDs and their tenants' quotas.
// Runs before the HTTP surface is up.
func (g *Gateway) recover() {
	pending := g.jobs.Recover(func(raw json.RawMessage) (json.RawMessage, func(*service.Job) *gwJob, bool) {
		var rec storedJob
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, nil, false // journaled by a newer build; unusable but harmless
		}
		if rec.Spec == nil {
			// A bare spec, journaled by clrearlyd before it ran a gateway:
			// the job belongs to the daemon's one tenant.
			rec.Spec = raw
			if len(g.cfg.Tenants) == 1 {
				rec.Tenant = g.cfg.Tenants[0].Name
			}
		}
		t := g.byName[rec.Tenant]
		if t == nil {
			// The tenant table changed across the restart; the job still
			// owes its submitter a result, so it proceeds without quota
			// accounting under the recovery tenant.
			t = g.anon
		}
		return rec.Spec, newGWJob(t), true
	})
	for _, j := range pending {
		if j.tenant != g.anon {
			j.tenant.mu.Lock()
			j.tenant.active++
			j.tenant.mu.Unlock()
		}
		g.queue.pushForce(j)
	}
}

// storedJob is the journaled submission payload: the spec plus its owner,
// so recovery can restore tenant attribution.
type storedJob struct {
	Tenant string          `json:"tenant"`
	Spec   json.RawMessage `json:"spec"`
}

func encodeJob(j *gwJob) ([]byte, error) {
	spec, err := json.Marshal(&j.Spec)
	if err != nil {
		return nil, err
	}
	return json.Marshal(storedJob{Tenant: j.tenant.cfg.Name, Spec: spec})
}

// newGWJob wraps a job record for tenant t.
func newGWJob(t *tenant) func(*service.Job) *gwJob {
	return func(j *service.Job) *gwJob { return &gwJob{Job: j, tenant: t, class: t.class} }
}

// ---- tenant-facing handlers ----

// authTenant resolves the request's API key ("Authorization: Bearer" or
// "X-API-Key") to a tenant, answering 401 when it matches none. A tenant
// with an empty key (only Config can make one, ParseTenants refuses it)
// is open: it takes every request no other key claims.
func (g *Gateway) authTenant(w http.ResponseWriter, r *http.Request) *tenant {
	key := r.Header.Get("X-API-Key")
	if key == "" {
		const prefix = "Bearer "
		if h := r.Header.Get("Authorization"); len(h) > len(prefix) && h[:len(prefix)] == prefix {
			key = h[len(prefix):]
		}
	}
	t := g.byKey[key]
	if t == nil {
		t = g.byKey[""]
	}
	if t == nil {
		g.m.rejectedAuth.Add(1)
		service.HTTPError(w, http.StatusUnauthorized, "missing or unknown API key")
		return nil
	}
	return t
}

func retryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int64(d / time.Second)
	if d%time.Second != 0 || secs < 1 {
		secs++
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
}

func (g *Gateway) handleSubmit(w http.ResponseWriter, r *http.Request) {
	t := g.authTenant(w, r)
	if t == nil {
		return
	}
	g.m.submitted.Add(1)
	if ok, wait := t.admitRate(time.Now()); !ok {
		t.rejectedRate.Add(1)
		g.m.rejectedRate.Add(1)
		retryAfter(w, wait)
		service.HTTPError(w, http.StatusTooManyRequests,
			fmt.Sprintf("tenant %s over its %.3g jobs/s rate", t.cfg.Name, t.cfg.RatePerSec))
		return
	}
	// Invalid specs are rejected at the edge: a 400 here is cheaper for
	// the fleet than a failed job on a worker. The edge only validates;
	// the agent that runs a miss builds its task-level library.
	spec, hash, ok := service.DecodeSpec(w, r, g.cfg.MaxBodyBytes)
	if !ok {
		return
	}

	// Content-addressed routing, cheapest source first: an identical job
	// in flight, the gateway-local LRU, the replicated result store; only
	// a miss meets admission control: tenant quota, then queue depth.
	j, wire, route, err := g.jobs.Submit(spec, hash, newGWJob(t), func(j *gwJob) error {
		if !t.reserveActive() {
			t.rejectedQuota.Add(1)
			g.m.rejectedQuota.Add(1)
			return fmt.Errorf("tenant %s at its %d active-job quota", t.cfg.Name, t.cfg.MaxActive)
		}
		if !g.queue.push(j) {
			t.releaseActive()
			t.rejectedQueue.Add(1)
			g.m.rejectedBackpressure.Add(1)
			return fmt.Errorf("fleet queue full (%d jobs waiting)", g.cfg.QueueCap)
		}
		return nil
	})
	switch route {
	case service.Attached:
		t.deduped.Add(1)
		g.m.attachHits.Add(1)
		service.WriteJSON(w, http.StatusAccepted, wire)
	case service.CacheHit, service.StoreHit:
		hits := &g.m.cacheHits
		if route == service.StoreHit {
			hits = &g.m.storeHits
		}
		hits.Add(1)
		t.deduped.Add(1)
		service.WriteJSON(w, http.StatusOK, wire)
	case service.Refused:
		g.m.misses.Add(1)
		retryAfter(w, time.Second)
		service.HTTPError(w, http.StatusTooManyRequests, err.Error())
	case service.Queued:
		g.m.misses.Add(1)
		t.admitted.Add(1)
		g.m.admitted.Add(1)
		if err != nil {
			g.settle(j, service.StateFailed)
			service.HTTPError(w, http.StatusInternalServerError, err.Error())
			return
		}
		service.WriteJSON(w, http.StatusAccepted, wire)
	}
}

// finalize ends a job through the table (idempotently) and settles it.
func (g *Gateway) finalize(j *gwJob, state, errMsg string, front *service.FrontWire) {
	if g.jobs.Finish(j, state, errMsg, front) {
		g.settle(j, state)
	}
}

// settle releases an ended job's admission slot and counts its outcome.
func (g *Gateway) settle(j *gwJob, state string) {
	t := j.tenant
	if t != g.anon {
		t.releaseActive()
	}
	switch state {
	case service.StateDone:
		t.completed.Add(1)
		g.m.completed.Add(1)
	case service.StateFailed:
		t.failed.Add(1)
		g.m.failed.Add(1)
	case service.StateCancelled:
		t.cancelled.Add(1)
		g.m.cancelled.Add(1)
	}
}

// lookup resolves the path's job for the requesting tenant, answering 401
// or 404 itself when it cannot.
func (g *Gateway) lookup(w http.ResponseWriter, r *http.Request) *gwJob {
	t := g.authTenant(w, r)
	if t == nil {
		return nil
	}
	j, _ := g.jobs.Get(r.PathValue("id"))
	// Another tenant's job reads as absent, not forbidden: job IDs must
	// not confirm what other tenants are running. Jobs recovered under a
	// dropped tenant stay readable by anyone authenticated.
	if j == nil || (j.tenant != t && j.tenant != g.anon) {
		service.HTTPError(w, http.StatusNotFound, "no such job")
		return nil
	}
	return j
}

func (g *Gateway) handleGet(w http.ResponseWriter, r *http.Request) {
	if j := g.lookup(w, r); j != nil {
		service.WriteJSON(w, http.StatusOK, j.Wire(true))
	}
}

func (g *Gateway) handleList(w http.ResponseWriter, r *http.Request) {
	t := g.authTenant(w, r)
	if t == nil {
		return
	}
	jobs := []*service.JobWire{} // fronts are never inlined
	for _, j := range g.jobs.Jobs() {
		if j.tenant == t {
			jobs = append(jobs, j.Wire(false))
		}
	}
	service.WriteJSON(w, http.StatusOK, map[string]any{"jobs": jobs})
}

// handleWait long-polls a job's status: gateway.Client awaits its cells
// here.
func (g *Gateway) handleWait(w http.ResponseWriter, r *http.Request) {
	if j := g.lookup(w, r); j != nil {
		service.ServeWait(w, r, j.Job)
	}
}

func (g *Gateway) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := g.lookup(w, r)
	if j == nil {
		return
	}
	// Nobody may cancel a recovered (anon-owned) job, since ownership can
	// no longer be proven.
	if j.tenant == g.anon {
		service.HTTPError(w, http.StatusNotFound, "no such job")
		return
	}
	// The holder of a running job's lease learns of the cancellation on
	// its next progress report or renewal; lease expiry is the backstop
	// for a worker that never checks in again.
	if g.jobs.Cancel(j, func(j *gwJob) { j.cancelReq = true }) {
		g.queue.remove(j)
		g.settle(j, service.StateCancelled)
	}
	service.WriteJSON(w, http.StatusAccepted, j.Wire(false))
}

// handleEvents is the job's SSE stream, relayed from the lease
// holder's progress reports.
func (g *Gateway) handleEvents(w http.ResponseWriter, r *http.Request) {
	if j := g.lookup(w, r); j != nil {
		g.m.sseSubscribers.Add(1)
		defer g.m.sseSubscribers.Add(-1)
		service.ServeEvents(w, r, j.Job)
	}
}

// probeTargets maps each registered worker that advertises an address to
// that address.
func (g *Gateway) probeTargets() map[string]string {
	g.mu.Lock()
	defer g.mu.Unlock()
	targets := make(map[string]string)
	for name, wi := range g.workers {
		if wi.addr != "" {
			targets[name] = wi.addr
		}
	}
	return targets
}

// probeLoop health-checks workers that advertise an address.
func (g *Gateway) probeLoop() {
	defer g.loopsWG.Done()
	t := time.NewTicker(g.cfg.ProbeEvery)
	defer t.Stop()
	for {
		select {
		case <-g.closed:
			return
		case <-t.C:
		}
		targets := g.probeTargets()
		timeout := max(time.Second, g.cfg.ProbeEvery)
		var wg sync.WaitGroup
		results := make(map[string]bool, len(targets))
		var resMu sync.Mutex
		for name, addr := range targets {
			wg.Add(1)
			go func(name, addr string) {
				defer wg.Done()
				ok := probe(g.cfg.Client, addr, timeout)
				resMu.Lock()
				results[name] = ok
				resMu.Unlock()
			}(name, addr)
		}
		wg.Wait()
		g.mu.Lock()
		for name, ok := range results {
			if wi := g.workers[name]; wi != nil {
				wi.probed = true
				wi.probedOK = ok
			}
		}
		g.mu.Unlock()
	}
}

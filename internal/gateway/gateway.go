// Package gateway is the fleet control plane in front of N clrearlyd
// workers: one HTTP service that owns admission, routing and result
// storage, so a fleet of stateless-from-the-client's-view workers behaves
// like a single large daemon.
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
// SSE) shares the daemon's code: gateway jobs embed service.Job, and the
// wait, SSE, spec-intake and result-cache code is internal/service's, so
// existing clients work unchanged against a fleet.
package gateway

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

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

	mu           sync.Mutex
	jobs         map[string]*gwJob
	order        []string
	activeByHash map[string]*gwJob
	cache        *service.FrontCache
	leases       map[string]*lease
	workers      map[string]*workerInfo
	nextID       int64
	nextLease    int64
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
	completed int64
	failed    int64
	expired   int64
}

// New builds a gateway over the tenant table and starts its lease-expiry
// and worker-probe loops.
func New(cfg Config) (*Gateway, error) {
	cfg = cfg.withDefaults()
	g := &Gateway{
		cfg:          cfg,
		queue:        newWorkQueue(cfg.QueueCap),
		byKey:        make(map[string]*tenant),
		byName:       make(map[string]*tenant),
		closed:       make(chan struct{}),
		jobs:         make(map[string]*gwJob),
		activeByHash: make(map[string]*gwJob),
		cache:        service.NewFrontCache(cfg.CacheCap),
		leases:       make(map[string]*lease),
		workers:      make(map[string]*workerInfo),
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
	if cfg.Store != nil {
		g.recover(cfg.Store)
	}

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
	return g, nil
}

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) { g.mux.ServeHTTP(w, r) }

// Close stops the expiry and probe loops. Outstanding HTTP requests are
// the http.Server's to drain.
func (g *Gateway) Close() {
	select {
	case <-g.closed:
	default:
		close(g.closed)
	}
	g.loopsWG.Wait()
}

// recover rebuilds gateway state from the durable store: terminal fronts
// repopulate the shared result cache, finished job records keep answering
// GET /v1/jobs/{id}, and jobs that never finished re-enter the queue
// under their original IDs. Runs before the HTTP surface is up, so no
// locking is needed.
func (g *Gateway) recover(st *store.Store) {
	g.cache.LoadResults(st)
	for _, jr := range st.Jobs() {
		var rec storedJob
		if err := json.Unmarshal(jr.Spec, &rec); err != nil || rec.Spec == nil {
			continue // journaled by a newer build; unusable but harmless
		}
		rj := service.RecoverJob(st, jr, rec.Spec, g.cache)
		if rj == nil {
			continue
		}
		t := g.byName[rec.Tenant]
		if t == nil {
			// The tenant table changed across the restart; the job still
			// owes its submitter a result, so it proceeds without quota
			// accounting under the recovery tenant.
			t = g.anon
		}
		j := &gwJob{Job: rj, tenant: t, class: t.class}
		var n int64
		if _, err := fmt.Sscanf(jr.ID, "g%d", &n); err == nil && n > g.nextID {
			g.nextID = n
		}
		if j.State == service.StateQueued {
			if t != g.anon {
				t.mu.Lock()
				t.active++
				t.mu.Unlock()
			}
			g.activeByHash[j.Hash] = j
			g.queue.pushForce(j)
		}
		g.jobs[j.ID] = j
		g.order = append(g.order, j.ID)
	}
}

// storedJob is the journaled submission payload: the spec plus its owner,
// so recovery can restore tenant attribution.
type storedJob struct {
	Tenant string          `json:"tenant"`
	Spec   json.RawMessage `json:"spec"`
}

// ---- tenant-facing handlers ----

// authTenant resolves the request's API key ("Authorization: Bearer" or
// "X-API-Key") to a tenant, answering 401 when it matches none.
func (g *Gateway) authTenant(w http.ResponseWriter, r *http.Request) *tenant {
	key := r.Header.Get("X-API-Key")
	if key == "" {
		const prefix = "Bearer "
		if h := r.Header.Get("Authorization"); len(h) > len(prefix) && h[:len(prefix)] == prefix {
			key = h[len(prefix):]
		}
	}
	t := g.byKey[key]
	if key == "" || t == nil {
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
	// Specs that cannot build are rejected at the edge: a 400 here is
	// cheaper for the fleet than a failed job on a worker.
	spec, hash, ok := service.DecodeSpec(w, r, g.cfg.MaxBodyBytes)
	if !ok {
		return
	}

	g.mu.Lock()
	// Content-addressed routing, cheapest source first: an identical job
	// already in flight absorbs the submission outright.
	if dup := g.activeByHash[hash]; dup != nil {
		dup.Lock()
		dup.attached++
		dup.Unlock()
		t.deduped.Add(1)
		g.m.attachHits.Add(1)
		g.mu.Unlock()
		service.WriteJSON(w, http.StatusAccepted, dup.Wire(false))
		return
	}
	// Then the shared result cache: gateway-local LRU, falling back to
	// the replicated terminal-result store that survives restarts.
	front, ok := g.cache.Get(hash)
	source := &g.m.cacheHits
	if !ok && g.cfg.Store != nil {
		if payload, found := g.cfg.Store.Result(hash); found {
			var fw service.FrontWire
			if err := json.Unmarshal(payload, &fw); err == nil {
				front, ok = &fw, true
				source = &g.m.storeHits
				g.cache.Add(hash, front)
			}
		}
	}
	if ok {
		source.Add(1)
		t.deduped.Add(1)
		j := g.newJobLocked(t, spec, hash)
		j.FinishCached(front)
		g.jobs[j.ID] = j
		g.order = append(g.order, j.ID)
		g.mu.Unlock()
		g.journalAccept(j)
		j.JournalFinish(g.cfg.Store)
		service.WriteJSON(w, http.StatusOK, j.Wire(true))
		return
	}
	g.m.misses.Add(1)

	// Admission control: per-tenant quota, then global queue depth.
	if !t.reserveActive() {
		g.mu.Unlock()
		t.rejectedQuota.Add(1)
		g.m.rejectedQuota.Add(1)
		retryAfter(w, time.Second)
		service.HTTPError(w, http.StatusTooManyRequests,
			fmt.Sprintf("tenant %s at its %d active-job quota", t.cfg.Name, t.cfg.MaxActive))
		return
	}
	j := g.newJobLocked(t, spec, hash)
	if !g.queue.push(j) {
		g.nextID--
		g.mu.Unlock()
		t.releaseActive()
		t.rejectedQueue.Add(1)
		g.m.rejectedBackpressure.Add(1)
		retryAfter(w, time.Second)
		service.HTTPError(w, http.StatusTooManyRequests,
			fmt.Sprintf("fleet queue full (%d jobs waiting)", g.cfg.QueueCap))
		return
	}
	g.jobs[j.ID] = j
	g.order = append(g.order, j.ID)
	g.activeByHash[hash] = j
	g.mu.Unlock()
	t.admitted.Add(1)
	g.m.admitted.Add(1)
	// Journal the admission before acknowledging: once the client sees
	// 202, the job survives a gateway crash.
	if err := g.journalAccept(j); err != nil {
		g.finalize(j, service.StateFailed, "journaling job: "+err.Error(), nil)
		service.HTTPError(w, http.StatusInternalServerError, "journaling job: "+err.Error())
		return
	}
	service.WriteJSON(w, http.StatusAccepted, j.Wire(false))
}

// newJobLocked allocates a queued job record; the caller holds g.mu.
func (g *Gateway) newJobLocked(t *tenant, spec service.JobSpec, hash string) *gwJob {
	g.nextID++
	id := fmt.Sprintf("g%06d", g.nextID)
	return &gwJob{Job: service.NewJob(id, spec, hash, time.Now()), tenant: t, class: t.class}
}

func (g *Gateway) journalAccept(j *gwJob) error {
	st := g.cfg.Store
	if st == nil {
		return nil
	}
	specJSON, err := json.Marshal(&j.Spec)
	if err == nil {
		var payload []byte
		payload, err = json.Marshal(storedJob{Tenant: j.tenant.cfg.Name, Spec: specJSON})
		if err == nil {
			err = st.AcceptJob(j.ID, j.Hash, payload, j.Submitted)
		}
	}
	return err
}

// finalize moves a job to a terminal state (idempotently), releases its
// admission slot, publishes the result and journals the outcome. The hash
// leaves the in-flight index and a computed front enters the LRU before
// the job reads terminal, and the outcome is journaled in the same lock
// hold as the transition, so a client that resubmits the moment it sees
// done is served from the LRU, and the store already holds the front.
func (g *Gateway) finalize(j *gwJob, state, errMsg string, front *service.FrontWire) {
	g.mu.Lock()
	if g.activeByHash[j.Hash] == j {
		delete(g.activeByHash, j.Hash)
	}
	if state == service.StateDone && front != nil {
		g.cache.Add(j.Hash, front)
	}
	g.mu.Unlock()
	j.Lock()
	finished := j.FinishLocked(state, errMsg, front)
	if finished {
		j.worker = ""
		j.JournalLocked(g.cfg.Store)
	}
	j.Unlock()
	if !finished {
		return
	}

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
	g.mu.Lock()
	j := g.jobs[r.PathValue("id")]
	g.mu.Unlock()
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
	g.mu.Lock()
	jobs := make([]*service.Job, 0, len(g.order))
	for _, id := range g.order {
		if j := g.jobs[id]; j.tenant == t {
			jobs = append(jobs, j.Job)
		}
	}
	g.mu.Unlock()
	service.WriteJobList(w, jobs)
}

// handleWait is the daemon's /wait, so a Client can front a gateway or a
// single daemon alike.
func (g *Gateway) handleWait(w http.ResponseWriter, r *http.Request) {
	if j := g.lookup(w, r); j != nil {
		service.ServeWait(w, r, j.Job)
	}
}

func (g *Gateway) handleCancel(w http.ResponseWriter, r *http.Request) {
	t := g.authTenant(w, r)
	if t == nil {
		return
	}
	g.mu.Lock()
	j := g.jobs[r.PathValue("id")]
	g.mu.Unlock()
	// Same hiding rule as lookup; and nobody may cancel a recovered
	// (anon-owned) job, since ownership can no longer be proven.
	if j == nil || j.tenant != t {
		service.HTTPError(w, http.StatusNotFound, "no such job")
		return
	}
	j.Lock()
	state := j.State
	if state == service.StateRunning {
		// The lease holder learns of the cancellation on its next
		// progress report or renewal; lease expiry is the backstop for a
		// worker that never checks in again.
		j.cancelReq = true
	}
	j.Unlock()
	if state == service.StateQueued {
		g.queue.remove(j)
		g.finalize(j, service.StateCancelled, "cancelled", nil)
	}
	service.WriteJSON(w, http.StatusAccepted, j.Wire(false))
}

// handleEvents is the daemon's SSE stream, relayed from the lease
// holder's progress reports.
func (g *Gateway) handleEvents(w http.ResponseWriter, r *http.Request) {
	if j := g.lookup(w, r); j != nil {
		g.m.sseSubscribers.Add(1)
		defer g.m.sseSubscribers.Add(-1)
		service.ServeEvents(w, r, j.Job)
	}
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
		g.mu.Lock()
		targets := make(map[string]string)
		for name, wi := range g.workers {
			if wi.addr != "" {
				targets[name] = wi.addr
			}
		}
		g.mu.Unlock()
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

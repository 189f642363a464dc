package gateway

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/service"
)

// LeaseRequest is the body of POST /v1/lease: the worker's identity, an
// optional advertised address for gateway health probes, and how long
// the worker is willing to long-poll for work.
type LeaseRequest struct {
	Worker string `json:"worker"`
	// Addr, when non-empty, is the worker's own HTTP base address; the
	// gateway probes its /healthz periodically and surfaces liveness in
	// /metrics. Workers without a serving address just omit it.
	Addr string `json:"addr,omitempty"`
	// Timeout is the long-poll window (default 2s, capped at 30s).
	Timeout string `json:"timeout,omitempty"`
}

// LeaseGrant is the 200 response of POST /v1/lease: one job, claimed by
// this worker until the lease expires or is renewed.
type LeaseGrant struct {
	LeaseID string           `json:"lease_id"`
	JobID   string           `json:"job_id"`
	Hash    string           `json:"hash"`
	Spec    *service.JobSpec `json:"spec"`
	// TTLMS is the lease lifetime without renewal; workers should renew
	// (or report progress, which renews implicitly) well inside it.
	TTLMS int64 `json:"ttl_ms"`
	// Delivery counts how many times this job has been leased out,
	// 1-based; workers can log it to flag re-executed work.
	Delivery int `json:"delivery"`
}

// LeaseAck answers progress, renew and complete calls. Cancelled tells
// the worker to abandon the run: the submitting tenant cancelled the job.
type LeaseAck struct {
	Cancelled bool `json:"cancelled"`
}

// CompleteRequest is the body of POST /v1/lease/{id}/complete: the
// terminal outcome of the leased run.
type CompleteRequest struct {
	// State is done, failed or cancelled.
	State string                `json:"state"`
	Error string                `json:"error,omitempty"`
	Front *service.FrontWire    `json:"front,omitempty"`
	Final *service.ProgressWire `json:"final_progress,omitempty"`
}

// workerOnly gates a handler behind the worker token. Tenant API keys
// deliberately do not work there: leasing hands out other tenants' specs,
// so only fleet workers may call.
func (g *Gateway) workerOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if g.cfg.WorkerToken != "" && !checkBearer(r, g.cfg.WorkerToken) {
			g.m.rejectedAuth.Add(1)
			httpError(w, http.StatusUnauthorized, "missing or invalid worker token")
			return
		}
		h(w, r)
	}
}

// handleLease is the pull edge of the control plane: a worker long-polls
// for work and receives at most one job, claimed under a TTL lease.
func (g *Gateway) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<10)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("decoding lease request: %v", err))
		return
	}
	if req.Worker == "" {
		httpError(w, http.StatusBadRequest, "lease request names no worker")
		return
	}
	poll := 2 * time.Second
	if req.Timeout != "" {
		parsed, err := time.ParseDuration(req.Timeout)
		if err != nil || parsed <= 0 {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("bad timeout %q", req.Timeout))
			return
		}
		poll = min(parsed, 30*time.Second)
	}
	g.touchWorker(req.Worker, req.Addr, 1)
	defer g.touchWorker(req.Worker, "", -1)

	deadline := time.NewTimer(poll)
	defer deadline.Stop()
	for {
		wakeC := g.queue.awaitC() // arm before popping so no enqueue is missed
		if grant := g.tryLease(req.Worker); grant != nil {
			WriteJSON(w, http.StatusOK, grant)
			return
		}
		select {
		case <-wakeC:
		case <-deadline.C:
			w.WriteHeader(http.StatusNoContent)
			return
		case <-r.Context().Done():
			return
		case <-g.closed:
			w.WriteHeader(http.StatusNoContent)
			return
		}
	}
}

// tryLease pops the next live job and claims it for the worker.
func (g *Gateway) tryLease(workerName string) *LeaseGrant {
	for {
		j := g.queue.pop()
		if j == nil {
			return nil
		}
		j.Lock()
		if j.State != service.StateQueued {
			j.Unlock() // cancelled between enqueue and lease; skip
			continue
		}
		j.State = service.StateRunning
		j.worker = workerName
		j.attempts++
		delivery := j.attempts
		if j.Started.IsZero() {
			j.Started = time.Now()
		}
		j.Unlock()

		now := time.Now()
		g.mu.Lock()
		g.nextLease++
		l := &lease{
			id:      fmt.Sprintf("l%06d", g.nextLease),
			job:     j,
			worker:  workerName,
			granted: now,
			expires: now.Add(g.cfg.LeaseTTL),
		}
		g.leases[l.id] = l
		g.mu.Unlock()
		g.m.leasesGranted.Add(1)
		spec := j.Spec
		return &LeaseGrant{
			LeaseID:  l.id,
			JobID:    j.ID,
			Hash:     j.Hash,
			Spec:     &spec,
			TTLMS:    g.cfg.LeaseTTL.Milliseconds(),
			Delivery: delivery,
		}
	}
}

// touchWorker refreshes the worker registry entry for liveness tracking;
// polls (+1 or -1) counts a lease long-poll starting or ending.
func (g *Gateway) touchWorker(name, addr string, polls int) {
	g.mu.Lock()
	wi := g.workers[name]
	if wi == nil {
		wi = &workerInfo{name: name}
		g.workers[name] = wi
	}
	wi.lastSeen = time.Now()
	wi.polls += polls
	if addr != "" {
		wi.addr = normalizeURL(addr)
	}
	g.mu.Unlock()
}

// takeLease resolves a lease ID to its live lease, renewing it as a side
// effect (any worker call proves the worker alive) or, with consume,
// removing it.
func (g *Gateway) takeLease(w http.ResponseWriter, r *http.Request, consume bool) *lease {
	g.mu.Lock()
	l := g.leases[r.PathValue("id")]
	if l != nil {
		if consume {
			delete(g.leases, l.id)
		} else {
			l.expires = time.Now().Add(g.cfg.LeaseTTL)
		}
	}
	g.mu.Unlock()
	if l == nil {
		// Expired and re-enqueued (or completed by a twin): the worker
		// should drop the run — its result is redundant, never wrong,
		// because identical specs compute identical fronts.
		g.m.staleLeaseCalls.Add(1)
		httpError(w, http.StatusGone, "lease expired or unknown")
		return nil
	}
	g.touchWorker(l.worker, "", 0)
	return l
}

// handleLeaseProgress ingests a per-generation progress report: it renews
// the lease and fans the event out to the job's SSE subscribers — the
// gateway-side half of the job's progress stream.
func (g *Gateway) handleLeaseProgress(w http.ResponseWriter, r *http.Request) {
	l := g.takeLease(w, r, false)
	if l == nil {
		return
	}
	var p service.ProgressWire
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<10)).Decode(&p); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("decoding progress: %v", err))
		return
	}
	g.m.progressEvents.Add(1)
	l.job.publish(p)
	g.ack(w, l.job)
}

// handleLeaseRenew extends the lease without a progress payload.
func (g *Gateway) handleLeaseRenew(w http.ResponseWriter, r *http.Request) {
	if l := g.takeLease(w, r, false); l != nil {
		g.m.leasesRenewed.Add(1)
		g.ack(w, l.job)
	}
}

// ack answers a progress report or renewal, relaying any cancellation the
// tenant requested meanwhile.
func (g *Gateway) ack(w http.ResponseWriter, j *job) {
	j.Lock()
	cancelled := j.cancelReq
	j.Unlock()
	WriteJSON(w, http.StatusOK, LeaseAck{Cancelled: cancelled})
}

// handleLeaseComplete terminates a leased job with the worker's outcome.
// The body is validated before the lease is consumed: a rejected
// completion leaves the lease to expire, so the job is redelivered
// instead of stranded.
func (g *Gateway) handleLeaseComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("decoding completion: %v", err))
		return
	}
	errMsg := req.Error
	switch req.State {
	case service.StateDone:
		if req.Front == nil {
			httpError(w, http.StatusBadRequest, "done completion carries no front")
			return
		}
	case service.StateFailed:
	case service.StateCancelled:
		errMsg = "cancelled"
	default:
		httpError(w, http.StatusBadRequest, fmt.Sprintf("unknown terminal state %q", req.State))
		return
	}
	l := g.takeLease(w, r, true)
	if l == nil {
		return
	}
	if req.Final != nil {
		l.job.Lock()
		l.job.Progress = req.Final
		l.job.Unlock()
	}
	g.finalize(l.job, req.State, errMsg, req.Front)
	g.mu.Lock()
	if wi := g.workers[l.worker]; wi != nil {
		if req.State == service.StateDone {
			wi.completed++
		} else if req.State == service.StateFailed {
			wi.failed++
		}
	}
	g.mu.Unlock()
	WriteJSON(w, http.StatusOK, LeaseAck{})
}

// forgetAfterTTLs is how many lease lifetimes a worker that holds no lease
// and is not polling may stay silent before its registry record goes:
// restarted workers come back under new names, so records of dead ones
// must not pile up in /metrics and the probe loop.
const forgetAfterTTLs = 4

// expiryLoop reclaims leases whose workers stopped renewing — the
// worker-death path. The job goes back to the head of its queue (its
// progress so far is lost; determinism makes re-execution safe) until
// MaxDeliveries is spent, after which it fails rather than circulate
// forever. It also drops the records of workers silent for
// forgetAfterTTLs lease lifetimes.
func (g *Gateway) expiryLoop() {
	defer g.loopsWG.Done()
	tick := g.cfg.LeaseTTL / 4
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	if tick > 2*time.Second {
		tick = 2 * time.Second
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-g.closed:
			return
		case <-t.C:
		}
		now := time.Now()
		g.mu.Lock()
		var expired []*lease
		for id, l := range g.leases {
			if now.After(l.expires) {
				delete(g.leases, id)
				expired = append(expired, l)
			}
		}
		for _, l := range expired {
			if wi := g.workers[l.worker]; wi != nil {
				wi.expired++
			}
		}
		g.forgetSilentWorkers(now)
		g.mu.Unlock()
		for _, l := range expired {
			g.m.leasesExpired.Add(1)
			g.expireLease(l)
		}
	}
}

// forgetSilentWorkers deletes the records of workers that hold no lease,
// have no long-poll in flight and were last seen more than forgetAfterTTLs
// lease lifetimes before now. The caller holds g.mu.
func (g *Gateway) forgetSilentWorkers(now time.Time) {
	holding := make(map[string]bool, len(g.leases))
	for _, l := range g.leases {
		holding[l.worker] = true
	}
	for name, wi := range g.workers {
		if wi.polls == 0 && !holding[name] && now.Sub(wi.lastSeen) > forgetAfterTTLs*g.cfg.LeaseTTL {
			delete(g.workers, name)
		}
	}
}

// expireLease returns one abandoned job to the queue (or fails it).
func (g *Gateway) expireLease(l *lease) {
	j := l.job
	j.Lock()
	if j.State != service.StateRunning || j.worker != l.worker {
		j.Unlock() // completed, cancelled or already re-leased
		return
	}
	if j.cancelReq {
		j.Unlock()
		// The tenant cancelled while the (now dead) worker held the
		// lease; the expiry makes the cancellation terminal.
		g.finalize(j, service.StateCancelled, "cancelled", nil)
		return
	}
	if j.attempts >= g.cfg.MaxDeliveries {
		attempts := j.attempts
		j.Unlock()
		g.finalize(j, service.StateFailed,
			fmt.Sprintf("lease expired after %d deliveries", attempts), nil)
		return
	}
	j.State = service.StateQueued
	j.worker = ""
	g.queue.pushFront(j) // under the lock: a cancel that sees it queued can remove it
	j.Unlock()
}

package gateway

import (
	"net/http"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/faultmodel"
	"repro/internal/moea"
	"repro/internal/service"
	"repro/internal/store"
)

// gwMetrics are the gateway's lock-free counters.
type gwMetrics struct {
	submitted            atomic.Int64
	admitted             atomic.Int64
	attachHits           atomic.Int64
	cacheHits            atomic.Int64
	storeHits            atomic.Int64
	misses               atomic.Int64
	rejectedAuth         atomic.Int64
	rejectedRate         atomic.Int64
	rejectedQuota        atomic.Int64
	rejectedBackpressure atomic.Int64
	completed            atomic.Int64
	failed               atomic.Int64
	cancelled            atomic.Int64
	leasesGranted        atomic.Int64
	leasesRenewed        atomic.Int64
	leasesExpired        atomic.Int64
	staleLeaseCalls      atomic.Int64
	progressEvents       atomic.Int64
	sseSubscribers       atomic.Int64 // gauge: currently-open event streams
}

// DedupWire reports the shared result cache's effectiveness: how many
// submissions were absorbed without dispatching work, by source.
type DedupWire struct {
	// InflightAttach: submissions attached to an identical active job.
	InflightAttach int64 `json:"inflight_attach"`
	// CacheHits / StoreHits: fronts served from the gateway-local LRU and
	// from the WAL-backed replicated result store.
	CacheHits int64 `json:"cache_hits"`
	StoreHits int64 `json:"store_hits"`
	// Misses: submissions that became fleet work.
	Misses int64 `json:"misses"`
	// HitRate = (attach+cache+store) / (attach+cache+store+misses).
	HitRate float64 `json:"hit_rate"`
}

// RejectWire counts admission-control rejections by cause.
type RejectWire struct {
	Auth         int64 `json:"auth"`
	RateLimit    int64 `json:"rate_limit"`
	Quota        int64 `json:"quota"`
	Backpressure int64 `json:"backpressure"`
}

// QueueDepthsWire is the live queue depth per priority class.
type QueueDepthsWire struct {
	High     int `json:"high"`
	Normal   int `json:"normal"`
	Low      int `json:"low"`
	Capacity int `json:"capacity"`
}

// LeaseCountersWire reports the lease protocol's volume.
type LeaseCountersWire struct {
	Granted int64 `json:"granted"`
	Renewed int64 `json:"renewed"`
	// Expired: leases reclaimed because the worker stopped renewing.
	Expired int64 `json:"expired"`
	// StaleCalls: worker calls on leases already expired or resolved.
	StaleCalls int64 `json:"stale_calls"`
	// Active leases, with ages, follow per entry.
	Active []LeaseStatusWire `json:"active"`
}

// LeaseStatusWire is one outstanding lease.
type LeaseStatusWire struct {
	JobID     string `json:"job_id"`
	Worker    string `json:"worker"`
	AgeMS     int64  `json:"age_ms"`
	ExpiresMS int64  `json:"expires_in_ms"`
}

// WorkerStatusWire is the liveness view of one leasing worker.
type WorkerStatusWire struct {
	Name string `json:"name"`
	Addr string `json:"addr,omitempty"`
	// Healthy: the last /healthz probe passed (addr-advertising workers)
	// or the worker leased within two probe periods.
	Healthy    bool  `json:"healthy"`
	LastSeenMS int64 `json:"last_seen_ms"`
	Leases     int   `json:"leases"` // currently held
	Completed  int64 `json:"completed"`
	Failed     int64 `json:"failed"`
	Expired    int64 `json:"expired"`
}

// TenantStatusWire is the per-tenant admission and outcome ledger.
type TenantStatusWire struct {
	Priority      string `json:"priority"`
	Active        int    `json:"active"`
	Admitted      int64  `json:"admitted"`
	Deduped       int64  `json:"deduped"`
	RejectedRate  int64  `json:"rejected_rate"`
	RejectedQuota int64  `json:"rejected_quota"`
	RejectedQueue int64  `json:"rejected_backpressure"`
	Completed     int64  `json:"completed"`
	Failed        int64  `json:"failed"`
	Cancelled     int64  `json:"cancelled"`
}

// EngineWire is the engine counter block of a process that runs specs:
// the process-wide evaluation-acceleration, selection and fault-model
// counters, served straight from their structs.
type EngineWire struct {
	Accel      *core.AccelStats     `json:"eval_accel,omitempty"`
	Selection  *moea.SelectionStats `json:"selection,omitempty"`
	FaultModel *faultmodel.Stats    `json:"fault_model,omitempty"`
}

// EngineTotals reads this process's engine counter block.
func EngineTotals() EngineWire {
	a, s, f := core.AccelTotals(), core.SelectionTotals(), faultmodel.Totals()
	return EngineWire{Accel: &a, Selection: &s, FaultModel: &f}
}

// MetricsWire is the GET /metrics payload: the control-plane gauges
// (per-tenant admission ledgers, queue depths per priority class, lease
// ages, worker liveness, dedup sources), plus, when the gateway runs
// agents in process, the engine counter block and the run latencies. A
// gateway that runs no engine reports no engine counters.
type MetricsWire struct {
	Submitted int64 `json:"submitted"`
	Admitted  int64 `json:"admitted"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Cancelled int64 `json:"cancelled"`

	Dedup   DedupWire                   `json:"dedup"`
	Rejects RejectWire                  `json:"rejects"`
	Queue   QueueDepthsWire             `json:"queue"`
	Leases  LeaseCountersWire           `json:"leases"`
	Workers []WorkerStatusWire          `json:"workers"`
	Tenants map[string]TenantStatusWire `json:"tenants"`

	ProgressEvents int64 `json:"progress_events"`
	SSESubscribers int64 `json:"sse_subscribers"`

	CacheSize     int `json:"cache_size"`
	CacheCapacity int `json:"cache_capacity"`

	EngineWire
	Latency map[string]service.HistogramWire `json:"latency_ms,omitempty"`
	// Store gauges are present when the gateway runs with a durable store.
	Store *store.Stats `json:"store,omitempty"`
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := MetricsWire{
		Submitted:      g.m.submitted.Load(),
		Admitted:       g.m.admitted.Load(),
		Completed:      g.m.completed.Load(),
		Failed:         g.m.failed.Load(),
		Cancelled:      g.m.cancelled.Load(),
		ProgressEvents: g.m.progressEvents.Load(),
		SSESubscribers: g.m.sseSubscribers.Load(),
		Dedup: DedupWire{
			InflightAttach: g.m.attachHits.Load(),
			CacheHits:      g.m.cacheHits.Load(),
			StoreHits:      g.m.storeHits.Load(),
			Misses:         g.m.misses.Load(),
		},
		Rejects: RejectWire{
			Auth:         g.m.rejectedAuth.Load(),
			RateLimit:    g.m.rejectedRate.Load(),
			Quota:        g.m.rejectedQuota.Load(),
			Backpressure: g.m.rejectedBackpressure.Load(),
		},
		Leases: LeaseCountersWire{
			Granted:    g.m.leasesGranted.Load(),
			Renewed:    g.m.leasesRenewed.Load(),
			Expired:    g.m.leasesExpired.Load(),
			StaleCalls: g.m.staleLeaseCalls.Load(),
		},
		Tenants: make(map[string]TenantStatusWire, len(g.byName)),
	}
	if hits := m.Dedup.InflightAttach + m.Dedup.CacheHits + m.Dedup.StoreHits; hits+m.Dedup.Misses > 0 {
		m.Dedup.HitRate = float64(hits) / float64(hits+m.Dedup.Misses)
	}
	d := g.queue.depths()
	m.Queue = QueueDepthsWire{High: d[classHigh], Normal: d[classNormal], Low: d[classLow], Capacity: g.cfg.QueueCap}

	now := time.Now()
	g.mu.Lock()
	heldBy := make(map[string]int)
	for _, l := range g.leases {
		heldBy[l.worker]++
		m.Leases.Active = append(m.Leases.Active, LeaseStatusWire{
			JobID:     l.job.ID,
			Worker:    l.worker,
			AgeMS:     now.Sub(l.granted).Milliseconds(),
			ExpiresMS: l.expires.Sub(now).Milliseconds(),
		})
	}
	for _, wi := range g.workers {
		healthy := wi.probedOK
		if !wi.probed {
			// Never probed (no advertised address, or the loop has not
			// reached it yet): liveness is recent lease traffic.
			window := 2 * g.cfg.ProbeEvery
			if window <= 0 {
				window = 10 * time.Second
			}
			healthy = now.Sub(wi.lastSeen) <= window
		}
		m.Workers = append(m.Workers, WorkerStatusWire{
			Name:       wi.name,
			Addr:       wi.addr,
			Healthy:    healthy,
			LastSeenMS: now.Sub(wi.lastSeen).Milliseconds(),
			Leases:     heldBy[wi.name],
			Completed:  wi.completed,
			Failed:     wi.failed,
			Expired:    wi.expired,
		})
	}
	g.mu.Unlock()
	m.CacheSize = g.jobs.CacheLen()
	m.CacheCapacity = g.cfg.CacheCap
	sort.Slice(m.Workers, func(i, k int) bool { return m.Workers[i].Name < m.Workers[k].Name })
	sort.Slice(m.Leases.Active, func(i, k int) bool { return m.Leases.Active[i].JobID < m.Leases.Active[k].JobID })

	for name, t := range g.byName {
		m.Tenants[name] = TenantStatusWire{
			Priority:      classNames[t.class],
			Active:        t.activeNow(),
			Admitted:      t.admitted.Load(),
			Deduped:       t.deduped.Load(),
			RejectedRate:  t.rejectedRate.Load(),
			RejectedQuota: t.rejectedQuota.Load(),
			RejectedQueue: t.rejectedQueue.Load(),
			Completed:     t.completed.Load(),
			Failed:        t.failed.Load(),
			Cancelled:     t.cancelled.Load(),
		}
	}
	if len(g.agents) > 0 {
		m.EngineWire = EngineTotals()
		g.mu.Lock()
		m.Latency = make(map[string]service.HistogramWire, len(g.latency))
		for method, h := range g.latency {
			m.Latency[method] = h.Wire()
		}
		g.mu.Unlock()
	}
	if st := g.cfg.Store; st != nil {
		sw := st.Stats()
		m.Store = &sw
	}
	service.WriteJSON(w, http.StatusOK, m)
}

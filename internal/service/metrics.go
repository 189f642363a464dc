package service

import (
	"sync"
	"time"
)

// latencyBucketsMS are the upper bounds of the per-method job-latency
// histogram, in milliseconds; a final implicit +Inf bucket catches the rest.
var latencyBucketsMS = []float64{10, 30, 100, 300, 1000, 3000, 10000, 30000, 100000}

// histogram is a fixed-bucket latency histogram.
type histogram struct {
	Counts []int64 // len(latencyBucketsMS)+1; last is +Inf
	SumMS  float64
	N      int64
}

func (h *histogram) observe(ms float64) {
	if h.Counts == nil {
		h.Counts = make([]int64, len(latencyBucketsMS)+1)
	}
	i := 0
	for i < len(latencyBucketsMS) && ms > latencyBucketsMS[i] {
		i++
	}
	h.Counts[i]++
	h.SumMS += ms
	h.N++
}

// HistogramWire is the JSON form of one latency histogram: cumulative
// bucket counts keyed by "le_<bound_ms>" plus count and sum.
type HistogramWire struct {
	Buckets map[string]int64 `json:"buckets"`
	Count   int64            `json:"count"`
	SumMS   float64          `json:"sum_ms"`
}

func (h *histogram) wire() HistogramWire {
	out := HistogramWire{Buckets: make(map[string]int64, len(latencyBucketsMS)+1), Count: h.N, SumMS: h.SumMS}
	var cum int64
	for i, b := range latencyBucketsMS {
		cum += h.Counts[i]
		out.Buckets[leLabel(b)] = cum
	}
	out.Buckets["le_inf"] = h.N
	return out
}

func leLabel(bound float64) string {
	// Bounds are whole milliseconds; render without a decimal point.
	return "le_" + itoa(int64(bound)) + "ms"
}

func itoa(n int64) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// Metrics holds the service's expvar-style counters. All methods are safe
// for concurrent use.
type Metrics struct {
	mu        sync.Mutex
	submitted int64
	rejected  int64
	deduped   int64
	cacheHits int64
	cacheMiss int64
	latency   map[string]*histogram // by method
}

func newMetrics() *Metrics {
	return &Metrics{latency: make(map[string]*histogram)}
}

func (m *Metrics) incSubmitted() { m.mu.Lock(); m.submitted++; m.mu.Unlock() }
func (m *Metrics) incRejected()  { m.mu.Lock(); m.rejected++; m.mu.Unlock() }
func (m *Metrics) incDeduped()   { m.mu.Lock(); m.deduped++; m.mu.Unlock() }
func (m *Metrics) incCacheHit()  { m.mu.Lock(); m.cacheHits++; m.mu.Unlock() }
func (m *Metrics) incCacheMiss() { m.mu.Lock(); m.cacheMiss++; m.mu.Unlock() }

func (m *Metrics) observeLatency(method string, d time.Duration) {
	m.mu.Lock()
	h := m.latency[method]
	if h == nil {
		h = &histogram{}
		m.latency[method] = h
	}
	h.observe(float64(d) / float64(time.Millisecond))
	m.mu.Unlock()
}

// MetricsWire is the GET /metrics payload.
type MetricsWire struct {
	Jobs        JobCountsWire            `json:"jobs"`
	Queue       QueueWire                `json:"queue"`
	Cache       CacheWire                `json:"cache"`
	Accel       EvalAccelWire            `json:"eval_accel"`
	Selection   SelectionWire            `json:"selection"`
	Convergence ConvergenceWire          `json:"convergence"`
	FaultModel  FaultModelWire           `json:"fault_model"`
	Latency     map[string]HistogramWire `json:"latency_ms"`
	// Store gauges are present when the service runs with a durable store.
	Store *StoreWire `json:"store,omitempty"`
}

// SelectionWire reports the cumulative time the engines spent in the
// selection hot path (see core.SelectionTotals): non-dominated sorting plus
// crowding, and external-archive maintenance.
type SelectionWire struct {
	SortNanos    uint64 `json:"sort_ns"`
	ArchiveNanos uint64 `json:"archive_ns"`
}

// ConvergenceWire reports plateau-termination activity across every engine
// run: generations actually run against the configured budgets, the budget
// saved by early stops, and the last tracked archive hypervolume.
type ConvergenceWire struct {
	GenerationsRun    uint64 `json:"generations_run"`
	GenerationsBudget uint64 `json:"generations_configured"`
	GenerationsSaved  uint64 `json:"generations_saved"`
	PlateauStops      uint64 `json:"plateau_stops"`
	// LastHypervolume is the final archive hypervolume of the most recent
	// plateau-tracked run (0 until a converge-enabled run finishes a
	// generation).
	LastHypervolume float64 `json:"last_hypervolume"`
}

// FaultModelWire reports the process-wide fault-model subsystem counters
// (see faultmodel.Totals): task evaluations with the subsystem active,
// chain pairs built with permanent/repair states, and evaluations under an
// active checkpoint policy. All zero on a daemon that has only served
// legacy SEU-only jobs.
type FaultModelWire struct {
	Evals              uint64 `json:"evals"`
	PermChains         uint64 `json:"perm_chains"`
	CheckpointPolicies uint64 `json:"checkpoint_policies"`
}

// StoreWire reports the durable store's gauges: WAL size and I/O counters,
// compactions, torn bytes dropped at recovery, and retained record counts.
// The field set mirrors store.Stats.
type StoreWire struct {
	WALBytes    int64 `json:"wal_bytes"`
	Appends     int64 `json:"appends"`
	Syncs       int64 `json:"syncs"`
	Compactions int64 `json:"compactions"`
	TornBytes   int64 `json:"torn_bytes_truncated"`
	PendingJobs int   `json:"pending_jobs"`
	Jobs        int   `json:"jobs"`
	Results     int   `json:"results"`
	Checkpoints int   `json:"checkpoints"`
}

// JobCountsWire counts jobs by lifecycle state plus the submission and
// queue-full-rejection totals.
type JobCountsWire struct {
	Submitted int64 `json:"submitted"`
	Rejected  int64 `json:"rejected"`
	// Deduped counts submissions attached to an identical in-flight job.
	Deduped   int64 `json:"deduped"`
	Queued    int64 `json:"queued"`
	Running   int64 `json:"running"`
	Done      int64 `json:"done"`
	Failed    int64 `json:"failed"`
	Cancelled int64 `json:"cancelled"`
}

// QueueWire reports queue occupancy.
type QueueWire struct {
	Depth    int `json:"depth"`
	Capacity int `json:"capacity"`
}

// CacheWire reports result-cache effectiveness.
type CacheWire struct {
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
	Size     int   `json:"size"`
	Capacity int   `json:"capacity"`
}

// EvalAccelWire reports the process-wide evaluation-acceleration counters
// accumulated across every job's DSE instance (see core.AccelTotals):
// delta-evaluation reuse, batch warming, and batched chain solving.
type EvalAccelWire struct {
	// DeltaParentReuse counts offspring whose fitness was returned
	// verbatim from the parent (no gene changed the schedule inputs).
	DeltaParentReuse uint64 `json:"delta_parent_reuse"`
	// DeltaPrefixRuns counts delta evaluations that replayed a parent's
	// schedule prefix; DeltaFullRuns fell back to a full list schedule.
	DeltaPrefixRuns uint64 `json:"delta_prefix_runs"`
	DeltaFullRuns   uint64 `json:"delta_full_runs"`
	// MetricsReused counts per-task metric decodes skipped because the
	// gene was unchanged from the parent.
	MetricsReused uint64 `json:"metrics_reused"`
	// BatchWarmed counts metric-cache entries pre-warmed in deduplicated
	// generation batches before workers fanned out.
	BatchWarmed uint64 `json:"batch_warmed"`
	// PairedSolves counts absorbing-chain pairs solved with one shared
	// factorization (two RHS per solve); SoloSolves went one-by-one.
	PairedSolves uint64 `json:"paired_solves"`
	SoloSolves   uint64 `json:"solo_solves"`
}

// snapshot captures the counter-side metrics; the server fills in the
// state-derived gauges.
func (m *Metrics) snapshot() MetricsWire {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := MetricsWire{
		Jobs:    JobCountsWire{Submitted: m.submitted, Rejected: m.rejected, Deduped: m.deduped},
		Cache:   CacheWire{Hits: m.cacheHits, Misses: m.cacheMiss},
		Latency: make(map[string]HistogramWire, len(m.latency)),
	}
	for method, h := range m.latency {
		out.Latency[method] = h.wire()
	}
	return out
}

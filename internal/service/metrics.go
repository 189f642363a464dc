package service

import (
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faultmodel"
	"repro/internal/moea"
	"repro/internal/store"
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
	return "le_" + strconv.FormatInt(int64(bound), 10) + "ms"
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
	Jobs       JobCountsWire            `json:"jobs"`
	Queue      QueueWire                `json:"queue"`
	Cache      CacheWire                `json:"cache"`
	Accel      core.AccelStats          `json:"eval_accel"`
	Selection  moea.SelectionStats      `json:"selection"`
	FaultModel faultmodel.Stats         `json:"fault_model"`
	Latency    map[string]HistogramWire `json:"latency_ms"`
	// Store gauges are present when the service runs with a durable store.
	Store *store.Stats `json:"store,omitempty"`
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

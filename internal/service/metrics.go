package service

import "strconv"

// latencyBucketsMS are the upper bounds of the per-method job-latency
// histogram, in milliseconds; a final implicit +Inf bucket catches the rest.
var latencyBucketsMS = [...]float64{10, 30, 100, 300, 1000, 3000, 10000, 30000, 100000}

// Histogram is a fixed-bucket latency histogram. Not safe for concurrent
// use.
type Histogram struct {
	counts [len(latencyBucketsMS) + 1]int64 // the last is +Inf
	sumMS  float64
	n      int64
}

// Observe records one latency in milliseconds.
func (h *Histogram) Observe(ms float64) {
	i := 0
	for i < len(latencyBucketsMS) && ms > latencyBucketsMS[i] {
		i++
	}
	h.counts[i]++
	h.sumMS += ms
	h.n++
}

// HistogramWire is the JSON form of one latency histogram: cumulative
// bucket counts keyed by "le_<bound_ms>" plus count and sum.
type HistogramWire struct {
	Buckets map[string]int64 `json:"buckets"`
	Count   int64            `json:"count"`
	SumMS   float64          `json:"sum_ms"`
}

// Wire snapshots the histogram.
func (h *Histogram) Wire() HistogramWire {
	out := HistogramWire{Buckets: make(map[string]int64, len(h.counts)), Count: h.n, SumMS: h.sumMS}
	var cum int64
	for i, b := range latencyBucketsMS {
		cum += h.counts[i]
		// Bounds are whole milliseconds; render without a decimal point.
		out.Buckets["le_"+strconv.FormatInt(int64(b), 10)+"ms"] = cum
	}
	out.Buckets["le_inf"] = h.n
	return out
}

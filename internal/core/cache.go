package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/platform"
	"repro/internal/relmodel"
)

// metricsEntry is a single-flight table entry: its metrics are computed
// once, and concurrent requesters of the key wait on that computation.
type metricsEntry struct {
	once sync.Once
	m    relmodel.Metrics
}

// metricsTable memoizes task-level Markov evaluations per instance, shared
// by every fcCLR-encoded run on it (fcCLR, the layer-restricted baselines,
// the second stage of proposed), so a key is computed once per instance.
// Each task type of the graph owns a flat slab with one slot per key, at
// the mixed-radix index (((impl·modes + mode)·hw + HW)·ssw + SSW)·asw + ASW
// over the platform's largest mode count and the catalog's method counts:
// a hit is that index and one atomic load, a miss installs a fresh entry
// by CAS. misses counts installed entries; the evaluators publish lookups
// once per genome decode (see publishLookups).
type metricsTable struct {
	init                sync.Once
	slabs               [][]atomic.Pointer[metricsEntry] // by task type; nil if unused
	modes, hw, ssw, asw int
	misses, lookups     atomic.Uint64
}

// allocate sizes the table for in on first use: a slab for each task type
// the graph uses. Every later caller sees the same slabs and radices.
func (t *metricsTable) allocate(in *Instance) {
	t.init.Do(func() {
		t.modes = maxModes(in.Platform)
		t.hw, t.ssw, t.asw = len(in.Catalog.HW), len(in.Catalog.SSW), len(in.Catalog.ASW)
		t.slabs = make([][]atomic.Pointer[metricsEntry], in.Graph.NumTypes())
		for task := range in.Graph.NumTasks() {
			if tt := in.Graph.Task(task).Type; t.slabs[tt] == nil {
				n := len(in.Lib.ImplsShared(tt)) * t.modes * t.hw * t.ssw * t.asw
				t.slabs[tt] = make([]atomic.Pointer[metricsEntry], n)
			}
		}
	})
}

// entry returns the entry of one key, installing a fresh one on a miss.
// The caller runs the entry's once before reading its metrics.
func (t *metricsTable) entry(taskType, impl int, asg relmodel.Assignment) *metricsEntry {
	slot := &t.slabs[taskType][(((impl*t.modes+asg.Mode)*t.hw+asg.HW)*t.ssw+asg.SSW)*t.asw+asg.ASW]
	if e := slot.Load(); e != nil {
		return e
	}
	if fresh := new(metricsEntry); slot.CompareAndSwap(nil, fresh) {
		t.misses.Add(1)
		return fresh
	}
	return slot.Load()
}

// publishLookups adds the n table lookups one genome evaluation made to
// p's stats, if p decodes through the table: one shared write per genome,
// not per gene.
func publishLookups(p problemCore, n int) {
	if fc, ok := p.(*fcProblem); ok && n > 0 {
		fc.table.lookups.Add(uint64(n))
	}
}

// CacheStats reports the state of an instance's shared Markov-metric table.
type CacheStats struct {
	// Hits counts lookups that found an existing entry (including ones that
	// briefly waited on an in-flight computation).
	Hits uint64
	// Misses counts lookups that created the entry and ran the computation.
	Misses uint64
	// Entries is the number of distinct (task type, impl, assignment) keys.
	Entries int
}

// HitRate is Hits / (Hits + Misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// stats derives the hits from the published lookups; read mid-run, before
// an evaluator publishes, they read 0 rather than wrap.
func (t *metricsTable) stats() CacheStats {
	misses, lookups := t.misses.Load(), t.lookups.Load()
	return CacheStats{Hits: lookups - min(lookups, misses), Misses: misses, Entries: int(misses)}
}

// metricsInitMu guards lazy creation of per-instance tables. Instance is a
// plain exported struct built by composite literals all over the tree, so
// the table field cannot carry its own sync primitive without making
// Instance uncopyable (scenario scaling copies it by value).
var metricsInitMu sync.Mutex

// sharedMetrics returns the instance's metric table, creating it on first
// use. Every problem built on this instance shares the returned table.
func (in *Instance) sharedMetrics() *metricsTable {
	metricsInitMu.Lock()
	defer metricsInitMu.Unlock()
	if in.metrics == nil {
		in.metrics = &metricsTable{}
	}
	return in.metrics
}

// MetricsCacheStats reports hit/miss counters and size of the instance's
// shared Markov-metric table (creating the table if needed).
func (in *Instance) MetricsCacheStats() CacheStats {
	return in.sharedMetrics().stats()
}

// FitnessCacheStats is the counter shape of the retired genome-level
// fitness cache. It remains only because the cmd/clrbench benchmark
// module, which is versioned apart from the engine, still reads it for its
// core.fitness_hit_ratio row; that row now reads 0.
type FitnessCacheStats struct {
	Hits, Misses, Bypasses uint64
}

// FitnessCacheStats returns the zero value: no genome-level fitness cache
// exists any more (see FitnessCacheStats).
func (in *Instance) FitnessCacheStats() FitnessCacheStats {
	return FitnessCacheStats{}
}

// WithPlatform returns a copy of the instance bound to a different platform
// and a fresh metric table. Task metrics depend on the PE type's
// fault rates and DVFS modes, so a derived environment (e.g. a scenario
// with scaled SEU rates) must not share cached values with its parent.
func (in *Instance) WithPlatform(p *platform.Platform) *Instance {
	out := *in
	out.Platform = p
	out.metrics = nil
	return &out
}

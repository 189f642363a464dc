package core

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/moea"
	"repro/internal/schedule"
)

// fitnessShards is the shard count of the genome-level fitness cache; like
// the metric cache, 64 shards keep lock contention negligible at any
// realistic worker count.
const fitnessShards = 64

// DefaultFitnessCacheEntries is the total entry bound of an instance's
// fitness cache when Instance.FitnessCacheCap is zero. Each entry stores
// the canonical key (1+n words for the order plus 10 words per task) and
// the objective vector, ≈ 11·n·8 bytes for an n-task application — about
// 1 kB for the 10-task graphs of the paper's evaluation, so the default
// bound costs at most a few tens of MB even for the largest sweeps.
const DefaultFitnessCacheEntries = 8192

// fitnessEntry is a single-flight slot of the fitness cache: the first
// goroutine to claim a key evaluates inside once; concurrent requesters of
// the same genome block on that computation instead of duplicating it.
// key is the full canonical encoding, checked on every hit so a 64-bit
// hash collision can never return the wrong fitness.
//
// An entry doubles as the delta-evaluation replay state of its genome
// (the opaque state coreEvaluator.EvaluateDelta returns): its key encodes
// the schedule inputs, times the captured schedule. Entries are immutable
// once filled, so an evicted entry stays valid as a parent's state.
type fitnessEntry struct {
	once sync.Once
	hash uint64
	key  []uint64
	eval moea.Evaluation
	// times is the schedule replay artifact captured by delta-evaluating
	// fills (zero when the entry came through the plain path). It adds
	// ≈ 20·n bytes per entry on top of the ≈ 11·n·8-byte key — the memory
	// envelope stays linear in the task count.
	times schedule.SeqTimes
	slot  int // index in the owning shard's clock ring
}

// newFitnessEntry returns an unfilled entry holding its own copy of key.
func newFitnessEntry(hash uint64, key []uint64) *fitnessEntry {
	return &fitnessEntry{hash: hash, key: append([]uint64(nil), key...)}
}

// fitnessShard is one lock domain: a hash-keyed map plus a clock-eviction
// ring (second-chance: a hit sets the ref bit, the clock hand clears set
// bits and evicts the first clear one).
type fitnessShard struct {
	mu   sync.Mutex
	m    map[uint64]*fitnessEntry
	ring []*fitnessEntry
	ref  []bool
	hand int
}

// fitnessCache memoizes whole-genome fitness evaluations per instance,
// keyed by the exact inputs of the schedule evaluation — the priority
// permutation and the per-task (PE, metrics, footprint) decisions. Keying
// on schedule inputs rather than gene encodings makes sharing across
// problem formulations automatic: a pfCLR seed and its re-encoded fcCLR
// genome decode to the same decisions and hit the same entry, while a
// diverged tDSE library (whose candidate metrics differ from the
// instance's) produces different keys and never false-shares.
//
// The cache assumes the instance (graph, platform, spec, comm model,
// objectives) is immutable after construction, as the metric cache already
// does.
type fitnessCache struct {
	shards   [fitnessShards]fitnessShard
	perShard int

	hits      atomic.Uint64
	misses    atomic.Uint64
	bypasses  atomic.Uint64
	evictions atomic.Uint64
}

// fitnessTotals aggregates the counters of every fitness cache in the
// process, the source of the service-level /metrics gauges.
var fitnessTotals struct {
	hits, misses, bypasses, evictions atomic.Uint64
}

func newFitnessCache(totalCap int) *fitnessCache {
	if totalCap <= 0 {
		totalCap = DefaultFitnessCacheEntries
	}
	per := totalCap / fitnessShards
	if per < 1 {
		per = 1
	}
	return &fitnessCache{perShard: per}
}

// appendFitnessKey encodes the schedule inputs into dst: the task count,
// the priority permutation, then per task the PE id, the bit patterns of
// all metric fields and the footprint.
func appendFitnessKey(dst []uint64, order []int, decisions []schedule.TaskDecision) []uint64 {
	dst = append(dst, uint64(len(order)))
	for _, t := range order {
		dst = append(dst, uint64(t))
	}
	for i := range decisions {
		d := &decisions[i]
		dst = append(dst, uint64(d.PE),
			math.Float64bits(d.Metrics.EtaHours),
			math.Float64bits(d.Metrics.MinExTimeUS),
			math.Float64bits(d.Metrics.AvgExTimeUS),
			math.Float64bits(d.Metrics.ErrProb),
			math.Float64bits(d.Metrics.MTTFHours),
			math.Float64bits(d.Metrics.PowerW),
			math.Float64bits(d.Metrics.EnergyUJ),
			math.Float64bits(d.Metrics.TempC),
			math.Float64bits(d.MemKB))
	}
	return dst
}

// fitnessHash mixes the key words FNV-1a style with a final avalanche.
func fitnessHash(key []uint64) uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	for _, w := range key {
		h ^= w
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

func keyEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// lookup returns the memoized evaluation for the key, calling compute at
// most once per live entry. Verified hash collisions (same 64-bit hash,
// different key) bypass the cache entirely — compute runs uncached — so a
// collision can only cost time, never correctness.
func (c *fitnessCache) lookup(hash uint64, key []uint64, compute func() ([]float64, float64)) moea.Evaluation {
	e := c.entry(hash, key)
	e.once.Do(func() {
		objs, viol := compute()
		e.eval = moea.Evaluation{Objectives: objs, Violation: viol}
	})
	return e.eval
}

// entry returns the entry for key, the single place a key is copied: a
// hit returns the live entry, a miss inserts a new one holding a copy of
// key. A verified hash collision, or a nil (disabled) cache, yields a
// standalone entry built the same way but never inserted. The caller
// fills the entry through its once.
func (c *fitnessCache) entry(hash uint64, key []uint64) *fitnessEntry {
	if c == nil {
		return newFitnessEntry(hash, key)
	}
	s := &c.shards[hash%fitnessShards]
	s.mu.Lock()
	if e, ok := s.m[hash]; ok {
		s.ref[e.slot] = true
		s.mu.Unlock()
		if !keyEqual(e.key, key) {
			c.bypasses.Add(1)
			fitnessTotals.bypasses.Add(1)
			return newFitnessEntry(hash, key)
		}
		c.hits.Add(1)
		fitnessTotals.hits.Add(1)
		return e
	}
	if s.m == nil {
		s.m = make(map[uint64]*fitnessEntry, c.perShard)
	}
	e := newFitnessEntry(hash, key)
	c.insertLocked(s, e)
	s.mu.Unlock()
	c.misses.Add(1)
	fitnessTotals.misses.Add(1)
	return e
}

// insertLocked places e in the shard's clock ring, evicting a cold entry
// when the shard is full. Callers hold s.mu.
func (c *fitnessCache) insertLocked(s *fitnessShard, e *fitnessEntry) {
	if len(s.ring) < c.perShard {
		e.slot = len(s.ring)
		s.ring = append(s.ring, e)
		s.ref = append(s.ref, false)
		s.m[e.hash] = e
		return
	}
	for {
		if s.ref[s.hand] {
			s.ref[s.hand] = false
			s.hand = (s.hand + 1) % len(s.ring)
			continue
		}
		old := s.ring[s.hand]
		delete(s.m, old.hash)
		c.evictions.Add(1)
		fitnessTotals.evictions.Add(1)
		e.slot = s.hand
		s.ring[s.hand] = e
		s.m[e.hash] = e
		s.hand = (s.hand + 1) % len(s.ring)
		return
	}
}

// FitnessCacheStats reports the state of a fitness cache.
type FitnessCacheStats struct {
	// Hits counts lookups answered from an existing entry (including ones
	// that waited on an in-flight evaluation of the same genome).
	Hits uint64
	// Misses counts lookups that created the entry and ran the evaluation.
	Misses uint64
	// Bypasses counts verified 64-bit hash collisions, evaluated uncached.
	Bypasses uint64
	// Evictions counts entries displaced by the clock hand.
	Evictions uint64
	// Entries is the current number of cached genomes; Capacity its bound.
	Entries, Capacity int
}

// HitRate is Hits / (Hits + Misses + Bypasses), or 0 before any lookup.
func (s FitnessCacheStats) HitRate() float64 {
	total := s.Hits + s.Misses + s.Bypasses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

func (c *fitnessCache) stats() FitnessCacheStats {
	st := FitnessCacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Bypasses:  c.bypasses.Load(),
		Evictions: c.evictions.Load(),
		Capacity:  c.perShard * fitnessShards,
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Entries += len(s.m)
		s.mu.Unlock()
	}
	return st
}

// FitnessCacheTotals reports the process-wide accumulated fitness-cache
// counters across all instances (live and collected) — the gauges served
// by clrearlyd's /metrics. Entries/Capacity are zero: sizes are
// per-instance state, see Instance.FitnessCacheStats.
func FitnessCacheTotals() FitnessCacheStats {
	return FitnessCacheStats{
		Hits:      fitnessTotals.hits.Load(),
		Misses:    fitnessTotals.misses.Load(),
		Bypasses:  fitnessTotals.bypasses.Load(),
		Evictions: fitnessTotals.evictions.Load(),
	}
}

// sharedFitness returns the instance's fitness cache, creating it on first
// use; nil when the instance disables genome memoization. Like
// sharedMetrics, lazy creation keeps Instance copyable.
func (in *Instance) sharedFitness() *fitnessCache {
	if in.FitnessCacheCap < 0 {
		return nil
	}
	metricsInitMu.Lock()
	defer metricsInitMu.Unlock()
	if in.fitness == nil {
		in.fitness = newFitnessCache(in.FitnessCacheCap)
	}
	return in.fitness
}

// FitnessCacheStats reports hit/miss/eviction counters and occupancy of
// the instance's genome-level fitness cache. The zero value is returned
// when the cache is disabled (FitnessCacheCap < 0).
func (in *Instance) FitnessCacheStats() FitnessCacheStats {
	c := in.sharedFitness()
	if c == nil {
		return FitnessCacheStats{}
	}
	return c.stats()
}

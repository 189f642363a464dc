// Package markov implements absorbing discrete-state Markov chains with
// per-state residence times, the analysis machinery behind the task-level
// reliability models of CL(R)Early (Section IV of the paper).
//
// A chain is a set of named states, a subset of which are absorbing, plus
// transition probabilities between states. Each transient state carries a
// residence time: the time spent in the state per visit. Two questions are
// answered analytically, via the fundamental matrix N = (I − Q)⁻¹ of the
// chain (Kemeny & Snell):
//
//   - the expected accumulated residence time until absorption, which the
//     reliability model reads as the task's average execution time, and
//   - the probability of being absorbed in each absorbing state, which the
//     functional-reliability model reads as P(noError) and P(Error).
//
// Chain construction and analysis sit on the hot path of every task-metric
// evaluation, so the builder is allocation-conscious: edges live in one
// per-chain arena (a linked list threaded through a single slice), and
// state names are formatted lazily (only error paths and dumps read them).
// While a chain is built it records its structure key: each state's
// absorbing flag and each transition's ends, in call order. Analysis looks
// the key up in a process-wide, size-bounded plan table, compiling a plan
// on a miss: the state partition, the slot of every edge in (I − Q)ᵀ or R,
// and a matrix.Plan, the no-swap symbolic LU of (I − Q)ᵀ. Each analysis
// then only scatters the chain's probabilities into those slots, checking
// each state's outgoing mass, and replays the plan's elimination and
// substitutions, which perform the dense LU's operations in its order. A
// replay guard that trips sends that system to the dense kernel, so
// results and errors are the dense analysis' bit for bit. Results are
// slices indexed by state handle, and AnalyzePairInto reuses the caller's
// Result storage. Reset lets callers reuse a chain's storage across builds.
package markov

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/matrix"
	"repro/internal/sweep"
)

// stateName is a lazily formatted state name: a fixed prefix plus an
// optional numeric suffix ("ExecICI" + 2 → "ExecICI/2"). Building the
// string is deferred to Name(), keeping fmt off the construction hot path.
type stateName struct {
	prefix string
	idx    int32 // -1: no suffix
}

func (n stateName) String() string {
	if n.idx < 0 {
		return n.prefix
	}
	return fmt.Sprintf("%s/%d", n.prefix, n.idx)
}

// Chain is a builder for an absorbing Markov chain. States are referenced
// by the integer handles returned from AddStateIdx/AddAbsorbing.
type Chain struct {
	names     []stateName
	residence []float64
	absorbing []bool
	// Edge arena: head/tail index the first/last edge of each state in
	// earena; edges of one state form a linked list in insertion order.
	head, tail []int32
	earena     []edgeNode
	start      int
	hasStart   bool
	// key is the chain's structure as built, one entry per builder call
	// that shapes the arena: a state (byte 1 if absorbing, else 0) or a
	// transition (byte 2, then the uvarint handles of its ends). Chains
	// with equal keys have the same partition and edge layout, so they
	// share one analysis plan.
	key []byte
}

type edgeNode struct {
	to   int32
	next int32 // index of the next edge of the same state, -1 ends
	prob float64
}

// New returns an empty chain.
func New() *Chain {
	return &Chain{}
}

// Reset empties the chain while keeping its storage, so one chain value can
// be rebuilt many times without reallocating.
func (c *Chain) Reset() {
	c.names = c.names[:0]
	c.residence = c.residence[:0]
	c.absorbing = c.absorbing[:0]
	c.head = c.head[:0]
	c.tail = c.tail[:0]
	c.earena = c.earena[:0]
	c.start = 0
	c.hasStart = false
	c.key = c.key[:0]
}

func (c *Chain) addNamed(name stateName, residence float64, absorbing bool) int {
	c.names = append(c.names, name)
	c.residence = append(c.residence, residence)
	c.absorbing = append(c.absorbing, absorbing)
	c.head = append(c.head, -1)
	c.tail = append(c.tail, -1)
	tag := byte(0)
	if absorbing {
		tag = 1
	}
	c.key = append(c.key, tag)
	return len(c.names) - 1
}

// AddStateIdx adds a transient state named prefix/idx (idx < 0: just
// prefix); the name is formatted only when actually read, so hot builders
// can label indexed states without paying fmt.Sprintf per state.
func (c *Chain) AddStateIdx(prefix string, idx int, residence float64) int {
	if residence < 0 || math.IsNaN(residence) {
		panic(fmt.Sprintf("markov: invalid residence time %v for state %q", residence, stateName{prefix, int32(idx)}))
	}
	return c.addNamed(stateName{prefix: prefix, idx: int32(idx)}, residence, false)
}

// AddAbsorbing adds an absorbing state and returns its handle.
func (c *Chain) AddAbsorbing(name string) int {
	return c.addNamed(stateName{prefix: name, idx: -1}, 0, true)
}

// SetStart marks the initial state of the chain.
func (c *Chain) SetStart(s int) {
	c.checkState(s)
	c.start = s
	c.hasStart = true
}

// Transition adds a transition from → to with the given probability.
// Probabilities out of a state must sum to 1 (checked in Analyze).
// Zero-probability transitions are dropped.
func (c *Chain) Transition(from, to int, prob float64) {
	c.checkState(from)
	c.checkState(to)
	if prob < 0 || prob > 1+1e-12 || math.IsNaN(prob) {
		panic(fmt.Sprintf("markov: invalid probability %v on %q→%q", prob, c.names[from], c.names[to]))
	}
	if c.absorbing[from] {
		panic(fmt.Sprintf("markov: transition out of absorbing state %q", c.names[from]))
	}
	if prob == 0 {
		return
	}
	e := int32(len(c.earena))
	c.earena = append(c.earena, edgeNode{to: int32(to), next: -1, prob: prob})
	if c.tail[from] < 0 {
		c.head[from] = e
	} else {
		c.earena[c.tail[from]].next = e
	}
	c.tail[from] = e
	c.key = binary.AppendUvarint(binary.AppendUvarint(append(c.key, 2), uint64(from)), uint64(to))
}

// edges iterates the out-edges of state s in insertion order.
func (c *Chain) edges(s int, visit func(to int, prob float64)) {
	for e := c.head[s]; e >= 0; e = c.earena[e].next {
		visit(int(c.earena[e].to), c.earena[e].prob)
	}
}

// outMass sums the outgoing probability of state s.
func (c *Chain) outMass(s int) float64 {
	sum := 0.0
	for e := c.head[s]; e >= 0; e = c.earena[e].next {
		sum += c.earena[e].prob
	}
	return sum
}

func (c *Chain) checkState(s int) {
	if s < 0 || s >= len(c.names) {
		panic(fmt.Sprintf("markov: unknown state handle %d", s))
	}
}

// NumStates returns the total number of states.
func (c *Chain) NumStates() int { return len(c.names) }

// Name returns the name of state s.
func (c *Chain) Name(s int) string {
	c.checkState(s)
	return c.names[s].String()
}

// Result holds the analysis outputs for an absorbing chain.
type Result struct {
	// ExpectedTime is the expected accumulated residence time from the
	// start state until absorption.
	ExpectedTime float64
	// ExpectedVisits is indexed by state handle: the expected number of
	// visits to each transient state from the start state (0 for absorbing
	// states).
	ExpectedVisits []float64
	// Absorption is indexed by state handle: the probability of eventually
	// being absorbed in each absorbing state from the start state (0 for
	// transient states).
	Absorption []float64
}

// reset sizes r's slices to ns zeroed entries, reusing their storage.
func (r *Result) reset(ns int) {
	r.ExpectedTime = 0
	r.ExpectedVisits = zeroed(r.ExpectedVisits, ns)
	r.Absorption = zeroed(r.Absorption, ns)
}

func zeroed(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// chainPlan is the compiled analysis of one chain structure: the state
// partition, the slot of every edge in (I − Q)ᵀ or R, and the matrix plan
// of (I − Q)ᵀ. It depends on the structure key alone, holds no values and
// is never written after compile, so every chain with that key shares it.
type chainPlan struct {
	transient, absorbing []int32 // state handles, ascending
	tIndex               []int32 // state handle → transient index
	// slots[e] places arena edge e: a slot of sys when ≥ 0, else R slot
	// ^slots[e].
	slots []int32
	// R by absorbing column: column a holds R slots rStart[a] up to
	// rStart[a+1], whose transient indexes rT lists in ascending order.
	rStart, rT []int32
	sys        *matrix.Plan
}

// maxPlans bounds the plan table. The tDSE libraries of the six committed
// scenario specs take 144 chain plans, and the corpus oracle together with
// its sweep of fault rates, checkpoint counts and permanent-fault settings
// about 210; an insert into a full table starts a fresh one.
const maxPlans = 1024

// plans is the process-wide plan table, an immutable map replaced whole on
// insert, so lookups take no lock.
var plans struct {
	mu sync.Mutex // serializes inserts
	m  atomic.Pointer[map[string]*chainPlan]
}

var planCounters struct {
	compiles, fallbacks atomic.Uint64
}

// PlanStats reports the process-wide plan counters.
type PlanStats struct {
	// Compiles counts chain plans entered into the table; Fallbacks counts
	// systems that tripped a replay guard and ran on the dense kernel.
	Compiles, Fallbacks uint64
}

// PlanTotals returns the accumulated plan counters.
func PlanTotals() PlanStats {
	return PlanStats{
		Compiles:  planCounters.compiles.Load(),
		Fallbacks: planCounters.fallbacks.Load(),
	}
}

// plan returns the chain's plan from the table, compiling and inserting it
// on a miss. Misses compile under the insert lock, so goroutines that miss
// on one structure at once compile it once (a cold tDSE misses on the same
// structures from many groups at a time) and a first call's allocations do
// not depend on the schedule. Compiles are a one-time cost per structure,
// so the lock costs nothing in the steady state.
func (c *Chain) plan() (*chainPlan, error) {
	if m := plans.m.Load(); m != nil {
		if p := (*m)[string(c.key)]; p != nil {
			return p, nil
		}
	}
	plans.mu.Lock()
	defer plans.mu.Unlock()
	m := plans.m.Load()
	if m != nil {
		if q := (*m)[string(c.key)]; q != nil {
			return q, nil
		}
	}
	p, err := c.compile()
	if err != nil {
		return nil, err
	}
	next := map[string]*chainPlan{}
	if m != nil && len(*m) < maxPlans {
		next = maps.Clone(*m)
	}
	next[string(c.key)] = p
	plans.m.Store(&next)
	planCounters.compiles.Add(1)
	return p, nil
}

// compile partitions the states, lays out R, and compiles the pattern of
// (I − Q)ᵀ: transition i→j of transient states is entry (j, i).
func (c *Chain) compile() (*chainPlan, error) {
	ns := len(c.names)
	p := &chainPlan{tIndex: make([]int32, ns)}
	aIndex := make([]int32, ns)
	for s := 0; s < ns; s++ {
		if c.absorbing[s] {
			aIndex[s] = int32(len(p.absorbing))
			p.absorbing = append(p.absorbing, int32(s))
		} else {
			p.tIndex[s] = int32(len(p.transient))
			p.transient = append(p.transient, int32(s))
		}
	}
	if len(p.absorbing) == 0 {
		return nil, fmt.Errorf("markov: chain has no absorbing state")
	}
	// Transients are visited in ascending index, so each R column lists
	// them ascending and repeated edges into one absorbing state share the
	// column's last entry.
	rcols := make([][]int32, len(p.absorbing))
	var rows, cols []int32
	for i, s := range p.transient {
		for e := c.head[s]; e >= 0; e = c.earena[e].next {
			to := c.earena[e].to
			if c.absorbing[to] {
				col := &rcols[aIndex[to]]
				if n := len(*col); n == 0 || (*col)[n-1] != int32(i) {
					*col = append(*col, int32(i))
				}
			} else {
				rows, cols = append(rows, p.tIndex[to]), append(cols, int32(i))
			}
		}
	}
	p.sys = matrix.NewPlan(len(p.transient), rows, cols)
	p.rStart = make([]int32, len(rcols)+1)
	for a, col := range rcols {
		p.rStart[a+1] = p.rStart[a] + int32(len(col))
		p.rT = append(p.rT, col...)
	}
	p.slots = make([]int32, len(c.earena))
	for i, s := range p.transient {
		for e := c.head[s]; e >= 0; e = c.earena[e].next {
			to := c.earena[e].to
			if c.absorbing[to] {
				lo, hi := p.rStart[aIndex[to]], p.rStart[aIndex[to]+1]
				k, _ := slices.BinarySearch(p.rT[lo:hi], int32(i))
				p.slots[e] = ^(lo + int32(k))
			} else {
				p.slots[e] = int32(p.sys.Slot(int(p.tIndex[to]), i))
			}
		}
	}
	return p, nil
}

// analyzeScratch holds the per-analysis values: the (I − Q)ᵀ system with
// its factorization, the transient→absorbing block R by plan slot, and the
// solve vectors. Kept on a free list so steady-state analyses reuse one
// allocation set.
type analyzeScratch struct {
	sys       matrix.System
	r         []float64
	e, visits []float64
}

// scratchPool hands scratch out in pairs, one per chain of AnalyzePair, so
// a pair analysis takes one value off the list.
var scratchPool = sweep.FreeList[*[2]analyzeScratch]{New: func() *[2]analyzeScratch { return new([2]analyzeScratch) }}

func growF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// assemble scatters the chain's probabilities into the plan's slots of
// (I − Q)ᵀ and R, checking each transient state's outgoing mass — the
// front half of an analysis. Callers have already handled the degenerate
// absorbed-at-start case.
//
// Fundamental matrix N = (I − Q)⁻¹. We only need the start row of N:
// visits v = e_startᵀ·N, obtained by solving (I − Q)ᵀ·vᵀ = e_start.
// Transition i→j contributes −Q[i][j] to entry (j, i), accumulated in each
// state's edge order, as a zeroed dense system would be.
func (c *Chain) assemble(p *chainPlan, sc *analyzeScratch) error {
	sc.sys.Reset(p.sys)
	sc.sys.AddDiagonal(1)
	sc.r = zeroed(sc.r, len(p.rT))
	for _, s := range p.transient {
		sum := 0.0 // outgoing probability mass, validated per state
		for e := c.head[s]; e >= 0; e = c.earena[e].next {
			prob := c.earena[e].prob
			sum += prob
			if q := p.slots[e]; q >= 0 {
				sc.sys.Add(int(q), -prob)
			} else {
				sc.r[^q] += prob
			}
		}
		if math.Abs(sum-1) > 1e-9 {
			return fmt.Errorf("markov: state %q has outgoing probability %v, want 1", c.names[s], sum)
		}
	}
	return nil
}

// factorAndSolve factorizes the assembled system and solves for the
// start-row visits vector — the back half of an analysis.
func (c *Chain) factorAndSolve(p *chainPlan, sc *analyzeScratch) error {
	err := sc.sys.Factorize()
	if err == nil {
		sc.solveUnit(&sc.sys, len(p.transient), int(p.tIndex[c.start]))
	}
	countFallback(&sc.sys)
	if err != nil {
		return fmt.Errorf("markov: chain is not absorbing from every transient state: %w", err)
	}
	return nil
}

// countFallback adds sys to the fallback count when its factorization or
// a solve with it ran on the dense kernel.
func countFallback(sys *matrix.System) {
	if sys.FellBack() {
		planCounters.fallbacks.Add(1)
	}
}

// solveUnit solves sys·visits = e_idx into sc.visits with sys's
// factorization.
func (sc *analyzeScratch) solveUnit(sys *matrix.System, n, idx int) {
	sc.e, sc.visits = growF(sc.e, n), growF(sc.visits, n)
	clear(sc.e)
	sc.e[idx] = 1
	sys.SolveVecInto(sc.visits, sc.e)
}

// collect turns the solved visits vector into res, replicating the dense
// analysis' summation order exactly.
func (c *Chain) collect(p *chainPlan, sc *analyzeScratch, res *Result) {
	res.reset(len(c.names))
	finite := true
	for i, s := range p.transient {
		v := sc.visits[i]
		res.ExpectedVisits[s] = v
		res.ExpectedTime += v * c.residence[s]
		finite = finite && !math.IsInf(v, 0) && !math.IsNaN(v)
	}
	// Absorption probabilities B = N·R; start row is visitsᵀ·R, summed in
	// ascending transient index. Zero entries of R add v·0 = ±0, which
	// leaves the +0-started sum unchanged unless v is not finite.
	for a, s := range p.absorbing {
		lo, hi := int(p.rStart[a]), int(p.rStart[a+1])
		pr := 0.0
		if finite {
			for k := lo; k < hi; k++ {
				pr += sc.visits[p.rT[k]] * sc.r[k]
			}
		} else {
			k := lo
			for t, v := range sc.visits {
				r := 0.0
				if k < hi && int(p.rT[k]) == t {
					r = sc.r[k]
					k++
				}
				pr += v * r
			}
		}
		res.Absorption[s] = pr
	}
}

// Analyze validates the chain and computes expected time to absorption and
// absorption probabilities using the fundamental matrix.
func (c *Chain) Analyze() (*Result, error) {
	res := new(Result)
	if err := c.analyzeInto(res); err != nil {
		return nil, err
	}
	return res, nil
}

func (c *Chain) analyzeInto(res *Result) error {
	if !c.hasStart {
		return fmt.Errorf("markov: no start state set")
	}
	if c.absorbing[c.start] {
		// Degenerate but legal: absorbed immediately.
		res.reset(len(c.names))
		res.Absorption[c.start] = 1
		return nil
	}
	p, err := c.plan()
	if err != nil {
		return err
	}
	ss := scratchPool.Get()
	defer scratchPool.Put(ss)
	sc := &ss[0]
	if err := c.assemble(p, sc); err != nil {
		return err
	}
	if err := c.factorAndSolve(p, sc); err != nil {
		return err
	}
	c.collect(p, sc, res)
	return nil
}

// AnalyzePair analyzes two chains together, answering both from a single
// factorization when their transient systems coincide bit for bit. The
// timing and functional chains of a checkpoint-free CLR configuration are
// the motivating case: both insert the same transient states in the same
// order with the same inter-state probabilities, so their (I − Q)ᵀ
// matrices are identical even though residence times and absorbing
// structure differ. Sharing is detected by bitwise comparison of the
// assembled systems — never assumed from the builders — so the returned
// results are bit-identical to a.Analyze() and b.Analyze() in every case.
// shared reports whether one factorization served both.
func AnalyzePair(a, b *Chain) (ra, rb *Result, shared bool, err error) {
	ra, rb = new(Result), new(Result)
	if shared, err = AnalyzePairInto(a, b, ra, rb); err != nil {
		return nil, nil, false, err
	}
	return ra, rb, shared, nil
}

// AnalyzePairInto is AnalyzePair writing into caller-owned results, whose
// slices are reused: the allocation-free form for callers that analyze
// many chain pairs in a loop.
func AnalyzePairInto(a, b *Chain, ra, rb *Result) (shared bool, err error) {
	if !a.hasStart || !b.hasStart || a.absorbing[a.start] || b.absorbing[b.start] {
		// Missing-start errors and degenerate absorbed-at-start results keep
		// Analyze's exact behavior.
		if err = a.analyzeInto(ra); err != nil {
			return false, err
		}
		if err = b.analyzeInto(rb); err != nil {
			return false, err
		}
		return false, nil
	}
	pa, err := a.plan()
	if err != nil {
		return false, err
	}
	ss := scratchPool.Get()
	defer scratchPool.Put(ss)
	sa, sb := &ss[0], &ss[1]
	if err = a.assemble(pa, sa); err != nil {
		return false, err
	}
	pb, err := b.plan()
	if err != nil {
		return false, err
	}
	if err = b.assemble(pb, sb); err != nil {
		return false, err
	}
	if sa.sys.EqualBits(&sb.sys) {
		// One factorization serves both: it is a deterministic function of
		// the matrix bits, so b's visits are exactly what its own
		// factorization would give.
		err = sa.sys.Factorize()
		if err == nil {
			n := len(pa.transient)
			ia, ib := int(pa.tIndex[a.start]), int(pb.tIndex[b.start])
			sa.solveUnit(&sa.sys, n, ia)
			if ia == ib {
				sb.visits = growF(sb.visits, n)
				copy(sb.visits, sa.visits)
			} else {
				sb.solveUnit(&sa.sys, n, ib)
			}
		}
		countFallback(&sa.sys)
		if err != nil {
			return false, fmt.Errorf("markov: chain is not absorbing from every transient state: %w", err)
		}
		a.collect(pa, sa, ra)
		b.collect(pb, sb, rb)
		return true, nil
	}
	if err = a.factorAndSolve(pa, sa); err != nil {
		return false, err
	}
	if err = b.factorAndSolve(pb, sb); err != nil {
		return false, err
	}
	a.collect(pa, sa, ra)
	b.collect(pb, sb, rb)
	return false, nil
}

// AbsorptionProbability is a convenience accessor: the probability of
// absorption in the state with the given name. The second return is false
// if no absorbing state has that name.
func (c *Chain) AbsorptionProbability(r *Result, name string) (float64, bool) {
	for s, abs := range c.absorbing {
		if abs && s < len(r.Absorption) && c.names[s].String() == name {
			return r.Absorption[s], true
		}
	}
	return 0, false
}

// Validate checks structural consistency without running the full analysis:
// every transient state has outgoing mass 1 and at least one absorbing
// state is reachable from the start state.
func (c *Chain) Validate() error {
	if !c.hasStart {
		return fmt.Errorf("markov: no start state set")
	}
	for s := range c.names {
		if c.absorbing[s] {
			continue
		}
		if sum := c.outMass(s); math.Abs(sum-1) > 1e-9 {
			return fmt.Errorf("markov: state %q has outgoing probability %v, want 1", c.names[s], sum)
		}
	}
	// Reachability sweep.
	seen := map[int]bool{c.start: true}
	stack := []int{c.start}
	absorbReachable := false
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if c.absorbing[s] {
			absorbReachable = true
			continue
		}
		c.edges(s, func(to int, _ float64) {
			if !seen[to] {
				seen[to] = true
				stack = append(stack, to)
			}
		})
	}
	if !absorbReachable {
		return fmt.Errorf("markov: no absorbing state reachable from start")
	}
	return nil
}

// SampleResult is one random walk through the chain.
type SampleResult struct {
	// Absorbed is the absorbing state the walk ended in.
	Absorbed int
	// Time is the accumulated residence time along the walk.
	Time float64
	// Steps counts state transitions taken.
	Steps int
}

// Sample performs one random walk from the start state to absorption,
// the Monte-Carlo counterpart of Analyze used for model validation.
// maxSteps bounds runaway walks (≤ 0 selects a generous default); walks
// exceeding the bound return an error.
func (c *Chain) Sample(rng *rand.Rand, maxSteps int) (SampleResult, error) {
	var res SampleResult
	if !c.hasStart {
		return res, fmt.Errorf("markov: no start state set")
	}
	if maxSteps <= 0 {
		maxSteps = 1_000_000
	}
	state := c.start
	for {
		if c.absorbing[state] {
			res.Absorbed = state
			return res, nil
		}
		res.Time += c.residence[state]
		first := c.head[state]
		if first < 0 {
			return res, fmt.Errorf("markov: transient state %q has no outgoing transitions", c.names[state])
		}
		r := rng.Float64()
		acc := 0.0
		next := -1
		// Falls through to the last edge when rounding leaves r ≥ Σp.
		for e := first; e >= 0; e = c.earena[e].next {
			acc += c.earena[e].prob
			next = int(c.earena[e].to)
			if r < acc {
				break
			}
		}
		state = next
		res.Steps++
		if res.Steps > maxSteps {
			return res, fmt.Errorf("markov: walk exceeded %d steps without absorbing", maxSteps)
		}
	}
}

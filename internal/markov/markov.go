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
// The analysis assembles (I − Q)ᵀ straight from the edge arena into a
// matrix.Sparse drawn from a package-level scratch free list; its
// elimination visits only the nonzeros yet returns the dense LU's bits. Results are
// slices indexed by state handle, and AnalyzePairInto reuses the caller's
// Result storage. Reset lets callers reuse a chain's storage across builds.
package markov

import (
	"fmt"
	"math"
	"math/rand"

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
}

func (c *Chain) addNamed(name stateName, residence float64, absorbing bool) int {
	c.names = append(c.names, name)
	c.residence = append(c.residence, residence)
	c.absorbing = append(c.absorbing, absorbing)
	c.head = append(c.head, -1)
	c.tail = append(c.tail, -1)
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

// analyzeScratch holds the per-analysis working set: state partitions and
// index tables, the (I − Q)ᵀ system with its in-place factorization, the
// transient→absorbing block R and the solve vectors. Kept on a free list so
// steady-state analyses reuse one allocation set.
type analyzeScratch struct {
	transient, absorbing []int32
	tIndex, aIndex       []int32 // state handle → row/column index
	sys                  matrix.Sparse
	// rcols[a] lists the nonzero entries of column a of R in ascending
	// transient index.
	rcols     [][]rEntry
	e, visits []float64
}

// rEntry is one nonzero R[t][a]: the transient state with index t moves
// to absorbing state a with probability v.
type rEntry struct {
	t int32
	v float64
}

var scratchPool = sweep.FreeList[*analyzeScratch]{New: func() *analyzeScratch { return &analyzeScratch{} }}

// grow returns s resized to n entries, reusing capacity.
func grow(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// assemble partitions the states and builds the (I − Q)ᵀ system and the
// transient→absorbing block R into sc — the front half of an analysis.
// Callers have already handled the degenerate absorbed-at-start case.
//
// Fundamental matrix N = (I − Q)⁻¹. We only need the start row of N:
// visits v = e_startᵀ·N, obtained by solving (I − Q)ᵀ·vᵀ = e_start.
// (I − Q)ᵀ is assembled straight from the edge arena — transition i→j
// contributes −Q[i][j] to entry (j, i) — into a sparse system whose
// solution is bit-identical to the dense one (see matrix.Sparse).
func (c *Chain) assemble(sc *analyzeScratch) error {
	ns := len(c.names)
	sc.transient, sc.absorbing = sc.transient[:0], sc.absorbing[:0]
	sc.tIndex, sc.aIndex = grow(sc.tIndex, ns), grow(sc.aIndex, ns)
	for s := 0; s < ns; s++ {
		if c.absorbing[s] {
			sc.aIndex[s] = int32(len(sc.absorbing))
			sc.absorbing = append(sc.absorbing, int32(s))
		} else {
			sc.tIndex[s] = int32(len(sc.transient))
			sc.transient = append(sc.transient, int32(s))
		}
	}
	if len(sc.absorbing) == 0 {
		return fmt.Errorf("markov: chain has no absorbing state")
	}
	nT, nA := len(sc.transient), len(sc.absorbing)
	if cap(sc.rcols) < nA {
		sc.rcols = append(sc.rcols[:cap(sc.rcols)], make([][]rEntry, nA-cap(sc.rcols))...)
	}
	sc.rcols = sc.rcols[:nA]
	for a := range sc.rcols {
		sc.rcols[a] = sc.rcols[a][:0]
	}
	sys := &sc.sys
	sys.Reset(nT)
	for i := 0; i < nT; i++ {
		sys.Add(i, i, 1)
	}
	for _, s := range sc.transient {
		i := sc.tIndex[s]
		sum := 0.0 // outgoing probability mass, validated per state
		for e := c.head[s]; e >= 0; e = c.earena[e].next {
			to, prob := int(c.earena[e].to), c.earena[e].prob
			sum += prob
			if c.absorbing[to] {
				// Rows arrive in ascending transient index, so repeated edges
				// into one absorbing state accumulate in the last entry.
				col := &sc.rcols[sc.aIndex[to]]
				if n := len(*col); n > 0 && (*col)[n-1].t == i {
					(*col)[n-1].v += prob
				} else {
					*col = append(*col, rEntry{t: i, v: prob})
				}
			} else {
				sys.Add(int(sc.tIndex[to]), int(i), -prob)
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
func (c *Chain) factorAndSolve(sc *analyzeScratch) error {
	if err := sc.sys.Factorize(); err != nil {
		return fmt.Errorf("markov: chain is not absorbing from every transient state: %w", err)
	}
	sc.solveUnit(&sc.sys, int(sc.tIndex[c.start]))
	return nil
}

// solveUnit solves sys·visits = e_idx into sc.visits with sys's
// factorization.
func (sc *analyzeScratch) solveUnit(sys *matrix.Sparse, idx int) {
	nT := len(sc.transient)
	sc.e, sc.visits = growF(sc.e, nT), growF(sc.visits, nT)
	clear(sc.e)
	sc.e[idx] = 1
	sys.SolveVecInto(sc.visits, sc.e)
}

// collect turns the solved visits vector into res, replicating the dense
// analysis' summation order exactly.
func (c *Chain) collect(sc *analyzeScratch, res *Result) {
	res.reset(len(c.names))
	finite := true
	for _, s := range sc.transient {
		v := sc.visits[sc.tIndex[s]]
		res.ExpectedVisits[s] = v
		res.ExpectedTime += v * c.residence[s]
		finite = finite && !math.IsInf(v, 0) && !math.IsNaN(v)
	}
	// Absorption probabilities B = N·R; start row is visitsᵀ·R, summed in
	// ascending transient index. Zero entries of R add v·0 = ±0, which
	// leaves the +0-started sum unchanged unless v is not finite.
	for a, s := range sc.absorbing {
		col := sc.rcols[a]
		p := 0.0
		if finite {
			for _, e := range col {
				p += sc.visits[e.t] * e.v
			}
		} else {
			k := 0
			for t, v := range sc.visits {
				r := 0.0
				if k < len(col) && int(col[k].t) == t {
					r = col[k].v
					k++
				}
				p += v * r
			}
		}
		res.Absorption[s] = p
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
	sc := scratchPool.Get()
	defer scratchPool.Put(sc)
	if err := c.assemble(sc); err != nil {
		return err
	}
	if err := c.factorAndSolve(sc); err != nil {
		return err
	}
	c.collect(sc, res)
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
	sa := scratchPool.Get()
	defer scratchPool.Put(sa)
	sb := scratchPool.Get()
	defer scratchPool.Put(sb)
	if err = a.assemble(sa); err != nil {
		return false, err
	}
	if err = b.assemble(sb); err != nil {
		return false, err
	}
	if sa.sys.EqualBits(&sb.sys) {
		// One factorization serves both: it is a deterministic function of
		// the matrix bits, so b's visits are exactly what its own
		// factorization would give.
		if err = sa.sys.Factorize(); err != nil {
			return false, fmt.Errorf("markov: chain is not absorbing from every transient state: %w", err)
		}
		ia, ib := int(sa.tIndex[a.start]), int(sb.tIndex[b.start])
		sa.solveUnit(&sa.sys, ia)
		if ia == ib {
			sb.visits = growF(sb.visits, len(sa.visits))
			copy(sb.visits, sa.visits)
		} else {
			sb.solveUnit(&sa.sys, ib)
		}
		a.collect(sa, ra)
		b.collect(sb, rb)
		return true, nil
	}
	if err = a.factorAndSolve(sa); err != nil {
		return false, err
	}
	if err = b.factorAndSolve(sb); err != nil {
		return false, err
	}
	a.collect(sa, ra)
	b.collect(sb, rb)
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

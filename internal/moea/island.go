package moea

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"

	"repro/internal/pareto"
)

// Island-model cooperative evolution: one logical run splits into N
// islands, each an ordinary NSGA-II population over the same problem with
// an arithmetically derived seed, exchanging elite migrants on a fixed
// ring every Every generations through a synchronous epoch barrier. The
// protocol is deterministic end to end — seeded migrant selection, rank-
// ordered replacement, ring routing by island index — so an N-island run
// is byte-reproducible for fixed N and seed regardless of where islands
// execute or how often they are killed and resumed.

// Migrant is one individual in wire form, exchanged between islands at an
// epoch boundary. Objectives and the violation travel as float64 bit
// patterns (like CheckpointSolution) so the receiving island inserts
// bit-exact fitness values without re-evaluating.
type Migrant struct {
	// From is the index of the emitting island.
	From int `json:"from"`
	// Order and Genes are the individual's genome.
	Order []int  `json:"order"`
	Genes []Gene `json:"genes"`
	// Objectives and Violation are the float64 bit patterns of the exact
	// evaluation the emitting island computed.
	Objectives []uint64 `json:"obj_bits"`
	Violation  uint64   `json:"violation_bits"`
}

// Hard bounds on migrant shape; anything past these is a malformed
// individual, not a plausible DSE one.
const (
	maxMigrantTasks      = 1 << 20
	maxMigrantObjectives = 64
)

// ValidateMigrant rejects structurally broken migrants: a non-permutation
// order, mismatched genome/objective arity, or non-finite fitness bits
// (NaN/Inf objectives are refused outright, mirroring tgff.parseFinite —
// a non-finite objective would silently poison ranking and the archive).
func ValidateMigrant(m Migrant) error {
	if m.From < 0 {
		return fmt.Errorf("moea: migrant from negative island %d", m.From)
	}
	if len(m.Order) == 0 || len(m.Order) > maxMigrantTasks {
		return fmt.Errorf("moea: migrant order length %d outside [1,%d]", len(m.Order), maxMigrantTasks)
	}
	if len(m.Genes) != len(m.Order) {
		return fmt.Errorf("moea: migrant has %d genes for %d tasks", len(m.Genes), len(m.Order))
	}
	if len(m.Objectives) == 0 || len(m.Objectives) > maxMigrantObjectives {
		return fmt.Errorf("moea: migrant objective count %d outside [1,%d]", len(m.Objectives), maxMigrantObjectives)
	}
	g := Genome{Order: m.Order, Genes: m.Genes}
	if err := g.Validate(); err != nil {
		return fmt.Errorf("moea: migrant genome: %w", err)
	}
	for i, b := range m.Objectives {
		if v := math.Float64frombits(b); math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("moea: migrant objective %d is not finite", i)
		}
	}
	if v := math.Float64frombits(m.Violation); math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return fmt.Errorf("moea: migrant violation %v is not a finite non-negative value", math.Float64frombits(m.Violation))
	}
	return nil
}

// EpochMigrants records the migrants one island posted for one epoch. The
// per-island checkpoint retains its full posting history so a restarted
// run can reseed a fresh epoch barrier: islands that already
// passed epoch e never re-post it, and without the log their peers would
// wait at the barrier forever.
type EpochMigrants struct {
	Epoch    int       `json:"epoch"`
	Migrants []Migrant `json:"migrants"`
}

// Migration configures one island's participation in an island-model run.
// All islands must agree on Every, Count and SelectSeed; Exchange is the
// transport to the epoch barrier (an IslandHub).
type Migration struct {
	// Every is the epoch period in generations (≥ 1). Migration fires at
	// the top of each generation g with g > 0 and g % Every == 0, before
	// any variation of generation g — so checkpoints taken at a boundary
	// hold pre-migration state and a resume re-runs the exchange.
	Every int
	// Count is the number of emigrants per exchange (1 ≤ Count < PopSize).
	Count int
	// Island is this island's index on the ring.
	Island int
	// SelectSeed seeds the per-epoch migrant-selection RNG. It is a
	// stream separate from the island's main GA stream: selection draws
	// nothing from the main RNG, so the evolution stream is identical
	// with or without migration.
	SelectSeed int64
	// Exchange posts this island's emigrants for the epoch and blocks
	// until the barrier releases the immigrants routed to it. It must be
	// idempotent: a resumed island re-posts boundary epochs byte-
	// identically and must receive the same immigrants.
	Exchange func(ctx context.Context, epoch int, out []Migrant) ([]Migrant, error)
}

func (m *Migration) active() bool { return m != nil }

func (m *Migration) validate(popSize int) error {
	if m == nil {
		return nil
	}
	if m.Every < 1 {
		return fmt.Errorf("moea: migration period %d must be ≥ 1", m.Every)
	}
	if m.Count < 1 || m.Count >= popSize {
		return fmt.Errorf("moea: migrant count %d outside [1,%d] for population %d", m.Count, popSize-1, popSize)
	}
	if m.Island < 0 {
		return fmt.Errorf("moea: negative island index %d", m.Island)
	}
	if m.Exchange == nil {
		return fmt.Errorf("moea: migration requires an exchange transport")
	}
	return nil
}

// migrationDue reports whether generation gen opens with an exchange.
func (m *Migration) due(gen int) bool {
	return m.active() && gen > 0 && gen%m.Every == 0
}

// migrationRNG derives the selection stream for one island and epoch by
// mixing the shared seed with both coordinates (64-bit wrapping is fine —
// we only need the streams decorrelated, not cryptographic).
func migrationRNG(seed int64, island, epoch int) *rand.Rand {
	s := seed
	s ^= int64(island+1) * -7046029254386353131 // 0x9E3779B97F4A7C15
	s ^= int64(epoch+1) * -4658895280553007687  // 0xBF58476D1CE4E5B9
	return rand.New(rand.NewSource(s))
}

// solutionMigrant converts a live population member to wire form.
func solutionMigrant(island int, s *solution) Migrant {
	m := Migrant{
		From:       island,
		Order:      append([]int(nil), s.genome.Order...),
		Genes:      append([]Gene(nil), s.genome.Genes...),
		Objectives: make([]uint64, len(s.eval.Objectives)),
		Violation:  math.Float64bits(s.eval.Violation),
	}
	for i, v := range s.eval.Objectives {
		m.Objectives[i] = math.Float64bits(v)
	}
	return m
}

// selectMigrants picks this epoch's emigrants: the island's single best
// member always travels (elitism), the rest come from binary tournaments
// drawn on the epoch's dedicated selection RNG.
func selectMigrants(pop []*solution, mig *Migration, epoch int) []Migrant {
	// Quality order: rank asc, crowding desc, index asc as the tiebreak.
	elite := make([]int, len(pop))
	for i := range elite {
		elite[i] = i
	}
	sort.Slice(elite, func(a, b int) bool {
		pa, pb := pop[elite[a]], pop[elite[b]]
		if pa.rank != pb.rank {
			return pa.rank < pb.rank
		}
		if pa.crowd != pb.crowd {
			return pa.crowd > pb.crowd
		}
		return elite[a] < elite[b]
	})
	rng := migrationRNG(mig.SelectSeed, mig.Island, epoch)
	picked := map[int]bool{elite[0]: true}
	chosen := []int{elite[0]}
	for len(chosen) < mig.Count {
		a := rng.Intn(len(pop))
		b := rng.Intn(len(pop))
		w := a
		if better(pop[b], pop[a]) {
			w = b
		}
		if picked[w] {
			// Already travelling: fall back to the best not-yet-picked
			// member so the batch stays distinct and elite-leaning.
			for _, e := range elite {
				if !picked[e] {
					w = e
					break
				}
			}
		}
		picked[w] = true
		chosen = append(chosen, w)
	}
	out := make([]Migrant, len(chosen))
	for i, idx := range chosen {
		out[i] = solutionMigrant(mig.Island, pop[idx])
	}
	return out
}

// insertMigrants replaces the worst population members with the incoming
// immigrants. The replacement order is fully determined by rank, crowding
// and index — no RNG draws — so insertion never perturbs either stream.
// Immigrants arrive with exact fitness bits and cost no evaluations.
func insertMigrants(p Problem, pop []*solution, in []Migrant) ([]*solution, error) {
	if len(in) == 0 {
		return nil, nil
	}
	if len(in) >= len(pop) {
		return nil, fmt.Errorf("moea: %d immigrants would displace the whole population of %d", len(in), len(pop))
	}
	nTasks, nObjs := p.NumTasks(), p.NumObjectives()
	added := make([]*solution, 0, len(in))
	// Worst first: rank desc, crowding asc, index desc.
	order := make([]int, len(pop))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		pa, pb := pop[order[a]], pop[order[b]]
		if pa.rank != pb.rank {
			return pa.rank > pb.rank
		}
		if pa.crowd != pb.crowd {
			return pa.crowd < pb.crowd
		}
		return order[a] > order[b]
	})
	for k, m := range in {
		if err := ValidateMigrant(m); err != nil {
			return nil, err
		}
		if len(m.Order) != nTasks {
			return nil, fmt.Errorf("moea: immigrant has %d tasks, problem has %d", len(m.Order), nTasks)
		}
		if len(m.Objectives) != nObjs {
			return nil, fmt.Errorf("moea: immigrant has %d objectives, problem has %d", len(m.Objectives), nObjs)
		}
		objs := make([]float64, nObjs)
		for j, b := range m.Objectives {
			objs[j] = math.Float64frombits(b)
		}
		s := &solution{
			genome: &Genome{
				Order: append([]int(nil), m.Order...),
				Genes: append([]Gene(nil), m.Genes...),
			},
			eval: Evaluation{Objectives: objs, Violation: math.Float64frombits(m.Violation)},
		}
		pop[order[k]] = s
		added = append(added, s)
	}
	return added, nil
}

// appendEpochLog records (or idempotently re-records) one epoch's posted
// emigrants in the island's migration log.
func appendEpochLog(log []EpochMigrants, epoch int, out []Migrant) []EpochMigrants {
	for i := range log {
		if log[i].Epoch == epoch {
			log[i].Migrants = out
			return log
		}
	}
	return append(log, EpochMigrants{Epoch: epoch, Migrants: out})
}

func cloneMigrantLog(log []EpochMigrants) []EpochMigrants {
	if len(log) == 0 {
		return nil
	}
	out := make([]EpochMigrants, len(log))
	for i, e := range log {
		out[i] = EpochMigrants{Epoch: e.Epoch, Migrants: append([]Migrant(nil), e.Migrants...)}
	}
	return out
}

// runMigration performs one epoch exchange at the top of generation gen:
// select emigrants, log them, trade through the barrier, splice the
// immigrants in, and refresh archive/ranks. Selection uses the epoch RNG
// and insertion is draw-free, so the island's main stream is untouched.
func runMigration(ctx context.Context, p Problem, params *Params, gen int,
	pop []*solution, arch *archiveState, log *[]EpochMigrants) error {
	mig := params.Migration
	epoch := gen / mig.Every
	out := selectMigrants(pop, mig, epoch)
	// Log before the exchange: a cancellation while blocked at the
	// barrier checkpoints this epoch's post, and the post is what reseeds
	// a fresh hub after a full restart.
	*log = appendEpochLog(*log, epoch, out)
	if ctx == nil {
		ctx = context.Background()
	}
	in, err := mig.Exchange(ctx, epoch, out)
	if err != nil {
		return fmt.Errorf("moea: island %d epoch %d exchange: %w", mig.Island, epoch, err)
	}
	added, err := insertMigrants(p, pop, in)
	if err != nil {
		return err
	}
	if len(added) > 0 {
		arch.add(added)
		arch.sc.rankAndCrowd(pop)
	}
	return nil
}

// IslandSeedStride separates per-island GA seeds: island i of an N-island
// run with base seed s evolves under seed s + (i+1)*IslandSeedStride.
// A fresh and a resumed run derive seeds with this same formula, so the
// result does not depend on where the run was interrupted. (Knuth's 2^32/φ
// multiplier; any large odd constant would do.)
const IslandSeedStride int64 = 2654435761

// IslandPop returns the population share of island i when pop members are
// split across n islands: pop/n each, with the first pop%n islands taking
// one extra so every member is owned by exactly one island.
func IslandPop(pop, n, i int) int {
	q, r := pop/n, pop%n
	if i < r {
		return q + 1
	}
	return q
}

// IslandParams derives island i's GA parameters from the logical run's
// base parameters: the population is split by IslandPop, the seed is
// offset by IslandSeedStride, and per-run hooks (progress, checkpoints,
// resume, migration) are cleared for the caller to rewire per island.
func IslandParams(base Params, i, n int) Params {
	p := base
	p.PopSize = IslandPop(base.PopSize, n, i)
	p.Seed = base.Seed + int64(i+1)*IslandSeedStride
	p.OnGeneration = nil
	p.OnCheckpoint = nil
	p.Resume = nil
	p.Migration = nil
	return p
}

// RingRoute routes one epoch's posts around the fixed ring: island i
// receives the emigrants island (i-1+n) mod n posted. The slices are
// shared, not copied — callers must not mutate routed migrants.
func RingRoute(posts [][]Migrant) [][]Migrant {
	n := len(posts)
	routes := make([][]Migrant, n)
	for i := 0; i < n; i++ {
		routes[i] = posts[(i-1+n)%n]
	}
	return routes
}

// IslandHub is the in-process epoch barrier: each island posts its
// emigrants for an epoch and blocks until all n islands have posted, then
// receives the ring-routed immigrants. Completed epochs stay cached for
// the lifetime of the hub so a killed-and-resumed island can replay an
// exchange its peers already finished. Posts are idempotent, and a replay
// that differs from the cached post is reported as a determinism
// violation — the hub doubles as a nondeterminism detector.
type IslandHub struct {
	n     int
	mu    sync.Mutex
	cond  *sync.Cond
	epoch map[int]*hubEpoch
	err   error
}

type hubEpoch struct {
	posts  [][]Migrant
	posted []bool
	have   int
	routes [][]Migrant
}

// NewIslandHub creates a barrier for n islands.
func NewIslandHub(n int) *IslandHub {
	h := &IslandHub{n: n, epoch: make(map[int]*hubEpoch)}
	h.cond = sync.NewCond(&h.mu)
	return h
}

func (h *IslandHub) epochState(epoch int) *hubEpoch {
	e := h.epoch[epoch]
	if e == nil {
		e = &hubEpoch{posts: make([][]Migrant, h.n), posted: make([]bool, h.n)}
		h.epoch[epoch] = e
	}
	return e
}

// post records one island's emigrants for an epoch (idempotent; a
// mismatched replay poisons the hub with a determinism-violation error).
func (h *IslandHub) post(island, epoch int, out []Migrant) error {
	if island < 0 || island >= h.n {
		return fmt.Errorf("moea: island %d outside hub of %d", island, h.n)
	}
	e := h.epochState(epoch)
	if e.posted[island] {
		if !reflect.DeepEqual(e.posts[island], out) {
			h.err = fmt.Errorf("moea: determinism violation: island %d re-posted different migrants for epoch %d", island, epoch)
			h.cond.Broadcast()
			return h.err
		}
		return nil
	}
	e.posts[island] = append([]Migrant(nil), out...)
	e.posted[island] = true
	e.have++
	if e.have == h.n {
		e.routes = RingRoute(e.posts)
		h.cond.Broadcast()
	}
	return nil
}

// Seed pre-loads an island's post for an epoch, replayed from a
// checkpointed migration log. A freshly constructed hub seeded with every
// surviving island's log reaches the same barrier states as the hub that
// was lost, so islands resumed at different epochs still pair up.
func (h *IslandHub) Seed(island, epoch int, out []Migrant) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.err != nil {
		return h.err
	}
	return h.post(island, epoch, out)
}

// Exchange implements Migration.Exchange against the in-process barrier.
func (h *IslandHub) Exchange(ctx context.Context, island, epoch int, out []Migrant) ([]Migrant, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	h.mu.Lock()
	if h.err != nil {
		err := h.err
		h.mu.Unlock()
		return nil, err
	}
	if err := h.post(island, epoch, out); err != nil {
		h.mu.Unlock()
		return nil, err
	}
	// Wake waiters when the context dies: sync.Cond cannot select on a
	// channel, so a watcher goroutine broadcasts on cancellation.
	stop := context.AfterFunc(ctx, func() {
		h.mu.Lock()
		h.cond.Broadcast()
		h.mu.Unlock()
	})
	defer stop()
	for {
		e := h.epoch[epoch]
		if h.err != nil {
			err := h.err
			h.mu.Unlock()
			return nil, err
		}
		if e != nil && e.routes != nil {
			in := append([]Migrant(nil), e.routes[island]...)
			h.mu.Unlock()
			return in, nil
		}
		if err := ctx.Err(); err != nil {
			h.mu.Unlock()
			return nil, err
		}
		h.cond.Wait()
	}
}

// Fail poisons the hub: every current and future Exchange returns err.
// Used when one island dies so its peers do not wait at the barrier
// forever, and by Close.
func (h *IslandHub) Fail(err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.err == nil {
		h.err = err
		h.cond.Broadcast()
	}
}

// Close aborts all waiters.
func (h *IslandHub) Close() {
	h.Fail(fmt.Errorf("moea: island hub closed"))
}

// IslandConfig shapes an in-process island-model run.
type IslandConfig struct {
	// N is the number of islands (≥ 2).
	N int
	// Every is the migration period in generations (≥ 1).
	Every int
	// Count is the number of migrants per exchange (default 2).
	Count int
	// SelectSeed seeds migrant selection; 0 derives it from the base seed.
	SelectSeed int64
	// PerIsland, when non-nil, adjusts island i's derived parameters
	// before the run starts — the hook used to attach per-island resume
	// checkpoints, contexts and checkpoint sinks.
	PerIsland func(i int, p *Params)
	// Exchange, when non-nil, replaces the in-process hub (tests use it
	// to sever the ring).
	Exchange func(ctx context.Context, island, epoch int, out []Migrant) ([]Migrant, error)
}

// RunIslands executes an N-island run of the problem in-process: islands
// evolve concurrently, trade migrants through an IslandHub, and their
// archives merge into one Pareto front. The result is byte-identical for
// a fixed (seed, N, Every, Count) regardless of scheduling, worker counts
// or how many islands were checkpointed and resumed along the way.
func RunIslands(p Problem, params Params, seeds []*Genome, cfg IslandConfig) (*Result, error) {
	if cfg.N < 2 {
		return nil, fmt.Errorf("moea: island run needs ≥ 2 islands, got %d", cfg.N)
	}
	if cfg.Every < 1 {
		return nil, fmt.Errorf("moea: migration period %d must be ≥ 1", cfg.Every)
	}
	if params.TerminateOnPlateau {
		// An early-stopping island would strand its peers at the epoch
		// barrier, so plateau termination and islands are mutually exclusive.
		return nil, fmt.Errorf("moea: plateau termination is incompatible with island runs")
	}
	count := cfg.Count
	if count <= 0 {
		count = 2
	}
	if params.PopSize < 2*cfg.N {
		return nil, fmt.Errorf("moea: population %d cannot split into %d islands of ≥ 2", params.PopSize, cfg.N)
	}
	selectSeed := cfg.SelectSeed
	if selectSeed == 0 {
		selectSeed = params.Seed + 1_000_003
	}
	perIsland := make([]Params, cfg.N)
	for i := 0; i < cfg.N; i++ {
		ip := IslandParams(params, i, cfg.N)
		if cfg.PerIsland != nil {
			cfg.PerIsland(i, &ip)
		}
		if count >= ip.PopSize {
			return nil, fmt.Errorf("moea: %d migrants do not fit island %d's population of %d", count, i, ip.PopSize)
		}
		perIsland[i] = ip
	}

	exchange := cfg.Exchange
	var hub *IslandHub
	if exchange == nil {
		hub = NewIslandHub(cfg.N)
		// Reseed the fresh barrier from checkpointed migration logs so
		// resumed islands that already passed an epoch are still
		// represented at it.
		for i, ip := range perIsland {
			if ip.Resume == nil {
				continue
			}
			for _, e := range ip.Resume.Migration {
				if err := hub.Seed(i, e.Epoch, e.Migrants); err != nil {
					return nil, err
				}
			}
		}
		exchange = hub.Exchange
	}

	// Seeds are dealt round-robin, so the deal depends only on their order.
	islandSeeds := make([][]*Genome, cfg.N)
	for i, s := range seeds {
		islandSeeds[i%cfg.N] = append(islandSeeds[i%cfg.N], s)
	}

	results := make([]*Result, cfg.N)
	errs := make([]error, cfg.N)
	var wg sync.WaitGroup
	for i := 0; i < cfg.N; i++ {
		island := i
		ip := perIsland[i]
		ip.Migration = &Migration{
			Every:      cfg.Every,
			Count:      count,
			Island:     island,
			SelectSeed: selectSeed,
			Exchange: func(ctx context.Context, epoch int, out []Migrant) ([]Migrant, error) {
				return exchange(ctx, island, epoch, out)
			},
		}
		wg.Add(1)
		go func(i int, ip Params) {
			defer wg.Done()
			results[i], errs[i] = Run(p, ip, islandSeeds[i])
			if errs[i] != nil && hub != nil {
				// Unblock peers waiting on this island at the barrier.
				hub.Fail(fmt.Errorf("moea: island %d failed: %w", i, errs[i]))
			}
		}(i, ip)
	}
	wg.Wait()
	if hub != nil {
		hub.Close()
	}
	// Prefer a context-cancellation error (the shared-shutdown case — the
	// caller's checkpoints are already written), else the lowest-index
	// island failure.
	var firstErr error
	for i, err := range errs {
		if err == nil {
			continue
		}
		if firstErr == nil {
			firstErr = fmt.Errorf("moea: island %d: %w", i, err)
		}
		if params.Ctx != nil && params.Ctx.Err() != nil {
			return nil, params.Ctx.Err()
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return MergeIslandResults(results), nil
}

// MergeIslandResults merges per-island results into one logical result:
// archives concatenate in island order, Pareto-filter once, and the
// evaluation counts sum, so a merged front never depends on which island
// finished first.
func MergeIslandResults(rs []*Result) *Result {
	merged := &Result{}
	var all []Solution
	for _, r := range rs {
		if r == nil {
			continue
		}
		merged.Evaluations += r.Evaluations
		all = append(all, r.Front...)
	}
	if len(all) == 0 {
		return merged
	}
	objs := make([][]float64, len(all))
	for i, s := range all {
		objs[i] = s.Objectives
	}
	for _, i := range pareto.Filter(objs) {
		merged.Front = append(merged.Front, all[i])
	}
	return merged
}

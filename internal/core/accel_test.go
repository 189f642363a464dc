package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/moea"
	"repro/internal/schedule"
)

// runMethod dispatches one named strategy under cfg, returning the union
// front (the Agnostic per-layer map is dropped).
func runMethod(t *testing.T, method string, inst *Instance, cfg RunConfig) *Front {
	t.Helper()
	var (
		front *Front
		err   error
	)
	switch method {
	case "fcclr":
		front, err = FcCLR(inst, cfg)
	case "pfclr":
		front, err = PfCLR(inst, cfg, filteredLib(t, inst))
	case "proposed":
		front, err = Proposed(inst, cfg, filteredLib(t, inst))
	case "agnostic":
		front, _, err = Agnostic(inst, cfg)
	default:
		t.Fatalf("unknown method %q", method)
	}
	if err != nil {
		t.Fatal(err)
	}
	return front
}

// TestDeltaOnOffByteIdenticalFronts is the tentpole exactness contract at
// the strategy level: every method on both engines at several seeds must
// produce a bit-identical front whether offspring are evaluated
// incrementally (the default) or from scratch.
func TestDeltaOnOffByteIdenticalFronts(t *testing.T) {
	inst := sobelInstance()
	for _, method := range []string{"fcclr", "pfclr", "proposed", "agnostic"} {
		for _, engine := range []Engine{NSGA2, MOEAD} {
			for _, seed := range []int64{1, 17} {
				t.Run(fmt.Sprintf("%s/%s/seed%d", method, engine, seed), func(t *testing.T) {
					cfg := RunConfig{Pop: 20, Gens: 8, Seed: seed, Engine: engine}
					on := frontBytes(t, runMethod(t, method, inst, cfg))
					cfg.fullEval = true
					off := frontBytes(t, runMethod(t, method, inst, cfg))
					if on != off {
						t.Fatal("delta evaluation changed the front")
					}
				})
			}
		}
	}
}

// TestDeltaOnOffIdenticalOnSynthetic repeats the contract on a synthetic
// instance where communication volumes and memory footprints are
// non-trivial, so prefix replay and suffix recompute both carry weight.
// Each side runs on its own instance, so no evaluation state is shared
// between them.
func TestDeltaOnOffIdenticalOnSynthetic(t *testing.T) {
	inst := func() *Instance {
		inst := synInstance(18, 23)
		inst.Comm.StartupUS = 4
		inst.Comm.PerKBUS = 0.3
		return inst
	}
	cfg := RunConfig{Pop: 24, Gens: 10, Seed: 23}
	on := frontBytes(t, runMethod(t, "proposed", inst(), cfg))
	cfg.fullEval = true
	off := frontBytes(t, runMethod(t, "proposed", inst(), cfg))
	if on != off {
		t.Fatal("delta evaluation changed the synthetic-instance front")
	}
}

// TestFitnessCacheDeterminism pins that a full run's front does not depend
// on how evaluations are reused: delta evaluation on a fresh instance
// (offspring replay their parent's per-genome record), delta off on a
// fresh instance (every genome scheduled from scratch), and delta on again
// on the first run's instance (its Markov-metric cache already warm) must
// agree, on both engines, for the two-stage Sobel run and a 60-task pfCLR
// run. reflect.DeepEqual compares the whole Front, Evaluations included.
func TestFitnessCacheDeterminism(t *testing.T) {
	cases := []struct {
		name   string
		inst   func() *Instance
		method string
		engine Engine
	}{
		{"sobel/proposed/nsga2", sobelInstance, "proposed", NSGA2},
		{"sobel/proposed/moead", sobelInstance, "proposed", MOEAD},
		{"synthetic60/pfclr/nsga2", func() *Instance { return synInstance(60, 3) }, "pfclr", NSGA2},
		{"synthetic60/pfclr/moead", func() *Instance { return synInstance(60, 3) }, "pfclr", MOEAD},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := smallCfg(42)
			cfg.Engine = c.engine
			inst := c.inst()
			delta := runMethod(t, c.method, inst, cfg)
			warm := runMethod(t, c.method, inst, cfg)
			if !reflect.DeepEqual(delta, warm) {
				t.Fatalf("fronts diverge on a rerun over a warm instance:\nfirst: %d evals %s\nrerun: %d evals %s",
					delta.Evaluations, frontBytes(t, delta), warm.Evaluations, frontBytes(t, warm))
			}
			full := cfg
			full.fullEval = true
			scratch := runMethod(t, c.method, c.inst(), full)
			if !reflect.DeepEqual(delta, scratch) {
				t.Fatalf("fronts diverge with delta evaluation on vs off:\ndelta: %d evals %s\nfull:  %d evals %s",
					delta.Evaluations, frontBytes(t, delta), scratch.Evaluations, frontBytes(t, scratch))
			}
		})
	}
}

// TestSameDecisionBitwise checks the delta evaluator's change test: equal
// decodes compare equal, and a change to the PE, any metric field, the
// footprint, or even the sign of a zero is a change.
func TestSameDecisionBitwise(t *testing.T) {
	p := newFCProblem(sobelInstance(), allFree)
	rng := rand.New(rand.NewSource(5))
	g := randomGenomeFor(p, rng)
	a := p.decodeDecision(0, g.Genes[0])
	b := p.decodeDecision(0, g.Genes[0])
	if !sameDecision(&a, &b) {
		t.Fatal("one gene decoded to different decisions")
	}
	for name, edit := range map[string]func(d *schedule.TaskDecision){
		"pe":       func(d *schedule.TaskDecision) { d.PE++ },
		"eta":      func(d *schedule.TaskDecision) { d.Metrics.EtaHours *= 2 },
		"minex":    func(d *schedule.TaskDecision) { d.Metrics.MinExTimeUS++ },
		"avgex":    func(d *schedule.TaskDecision) { d.Metrics.AvgExTimeUS++ },
		"errprob":  func(d *schedule.TaskDecision) { d.Metrics.ErrProb /= 2 },
		"permfail": func(d *schedule.TaskDecision) { d.Metrics.PermFailProb++ },
		"mttf":     func(d *schedule.TaskDecision) { d.Metrics.MTTFHours++ },
		"power":    func(d *schedule.TaskDecision) { d.Metrics.PowerW++ },
		"energy":   func(d *schedule.TaskDecision) { d.Metrics.EnergyUJ++ },
		"temp":     func(d *schedule.TaskDecision) { d.Metrics.TempC++ },
		"mem":      func(d *schedule.TaskDecision) { d.MemKB++ },
		"negzero":  func(d *schedule.TaskDecision) { d.MemKB = math.Copysign(0, -1) },
	} {
		c := a
		c.MemKB = 0
		d := c
		edit(&d)
		if sameDecision(&c, &d) {
			t.Errorf("%s: changed decision compared equal", name)
		}
	}
}

// TestReplayStateNotAliased delta-evaluates children against one parent
// record — with the order kept (prefix replay) and with it changed (full
// run) — and checks the parent's record is unchanged bit for bit, the
// page holding the changed decision is the child's own while every other
// page is the parent's, and each child's evaluation equals a from-scratch
// one.
func TestReplayStateNotAliased(t *testing.T) {
	inst := synInstance(18, 23)
	inst.Comm.StartupUS = 4
	inst.Comm.PerKBUS = 0.3
	p := newFCProblem(inst, allFree)
	ev := p.NewEvaluator().(*coreEvaluator)
	rng := rand.New(rand.NewSource(9))
	parent := randomGenomeFor(p, rng)
	_, st := ev.EvaluateDelta(parent, nil, nil)
	rec := st.(*replayState)
	want := fmt.Sprintf("%v|%v", pagedDecisions(rec, p.NumTasks()), replayBits(rec))

	for _, reorder := range []bool{false, true} {
		child := parent.Clone()
		// Change the decision of the task scheduled last but one, so a
		// same-order child replays a long prefix.
		task := child.Order[len(child.Order)-2]
		before := p.decodeDecision(task, child.Genes[task])
		for {
			child.Genes[task] = p.MutateGene(rng, task, child.Genes[task])
			after := p.decodeDecision(task, child.Genes[task])
			if !sameDecision(&before, &after) {
				break
			}
		}
		if reorder {
			child.Order = rng.Perm(len(child.Order))
		}
		got, cst := ev.EvaluateDelta(child, parent, rec)
		crec := cst.(*replayState)
		if crec == rec || crec.pages[task/pageSize] == rec.pages[task/pageSize] {
			t.Fatalf("reorder=%v: child shares the parent's page of the changed task", reorder)
		}
		for k := range rec.pages {
			if k != task/pageSize && crec.pages[k] != rec.pages[k] {
				t.Fatalf("reorder=%v: child copied unchanged page %d", reorder, k)
			}
		}
		if full := p.Evaluate(child); !reflect.DeepEqual(got, full) {
			t.Fatalf("reorder=%v: delta %+v, full %+v", reorder, got, full)
		}
		if now := fmt.Sprintf("%v|%v", pagedDecisions(rec, p.NumTasks()), replayBits(rec)); now != want {
			t.Fatalf("reorder=%v: parent record changed by a child's evaluation", reorder)
		}
	}
}

// TestReleaseRecyclesOnlyTheChildsOwn releases children of one parent
// record through a second evaluator and evaluates more children into what
// came back. The children are one identical to the parent (the
// parent-reuse path returns the parent's record), one with only its order
// changed (it shares the parent's page table), one with a changed decision
// in the parent's order (it shares the parent's Seq) and one without a
// parent (it owns every page). Only the child's own record and pages may
// reach the free lists, and those of the record's owner; the parent's
// record must stay unchanged bit for bit; and every evaluation must equal
// a from-scratch one.
func TestReleaseRecyclesOnlyTheChildsOwn(t *testing.T) {
	inst := synInstance(18, 23)
	inst.Comm.StartupUS = 4
	inst.Comm.PerKBUS = 0.3
	p := newFCProblem(inst, allFree)
	ev := p.NewEvaluator().(*coreEvaluator)
	other := p.NewEvaluator().(*coreEvaluator)
	rng := rand.New(rand.NewSource(9))
	n := p.NumTasks()
	parent := randomGenomeFor(p, rng)
	_, st := ev.EvaluateDelta(parent, nil, nil)
	rec := st.(*replayState)
	want := fmt.Sprintf("%v|%v", pagedDecisions(rec, n), replayBits(rec))

	// changed returns a copy of parent with the decision of the task
	// scheduled last but one changed, and a new order when reorder is set.
	changed := func(reorder bool) *moea.Genome {
		child := parent.Clone()
		task := child.Order[len(child.Order)-2]
		before := p.decodeDecision(task, child.Genes[task])
		for {
			child.Genes[task] = p.MutateGene(rng, task, child.Genes[task])
			after := p.decodeDecision(task, child.Genes[task])
			if !sameDecision(&before, &after) {
				break
			}
		}
		if reorder {
			child.Order = rng.Perm(n)
		}
		return child
	}
	eval := func(name string, g, par *moea.Genome, pst any) *replayState {
		t.Helper()
		got, cst := ev.EvaluateDelta(g, par, pst)
		if full := p.Evaluate(g); !reflect.DeepEqual(got, full) {
			t.Fatalf("%s: delta %+v, full %+v", name, got, full)
		}
		if now := fmt.Sprintf("%v|%v", pagedDecisions(rec, n), replayBits(rec)); now != want {
			t.Fatalf("%s: parent record changed", name)
		}
		return cst.(*replayState)
	}
	free := func(name string, recs, pages int) {
		t.Helper()
		if len(ev.freeRecs) != recs || len(ev.freePages) != pages || len(other.freeRecs)+len(other.freePages) != 0 {
			t.Fatalf("%s: free lists hold %d records and %d pages (want %d and %d), the other evaluator's %d and %d",
				name, len(ev.freeRecs), len(ev.freePages), recs, pages, len(other.freeRecs), len(other.freePages))
		}
	}

	if c := eval("parent reuse", parent.Clone(), parent, rec); c != rec {
		t.Fatal("an identical child did not get the parent's record")
	} else {
		other.Release(c, rec)
	}
	free("parent reuse", 0, 0)

	reordered := parent.Clone()
	reordered.Order = rng.Perm(n)
	orderOnly := eval("order only", reordered, parent, rec)
	if !sameArray(orderOnly.pages, rec.pages) {
		t.Fatal("an order-only child does not share the parent's page table")
	}
	other.Release(orderOnly, rec)
	free("order only", 1, 0)

	prefix := eval("prefix replay", changed(false), parent, rec)
	if prefix != orderOnly || !sameArray(prefix.times.Seq, rec.times.Seq) {
		t.Fatal("a same-order child did not reuse the released record or does not share the parent's Seq")
	}
	other.Release(prefix, rec)
	free("prefix replay", 1, 1)

	// A full run into the recycled record and page: writing its Seq or
	// its page table into the parent's would change the parent's record.
	full := eval("full run", changed(true), parent, rec)
	if full != orderOnly {
		t.Fatal("a reordered child did not reuse the released record")
	}
	other.Release(full, rec)
	free("full run", 1, 1)

	scratch := eval("from scratch", randomGenomeFor(p, rng), nil, nil)
	other.Release(scratch, nil)
	free("from scratch", 1, numPages(n))
	eval("after scratch", changed(false), parent, rec)
	eval("parentless reuse", randomGenomeFor(p, rng), nil, nil)
}

// pagedDecisions puts a record's pages together into the n decisions the
// scheduler reads.
func pagedDecisions(r *replayState, n int) []schedule.TaskDecision {
	out := make([]schedule.TaskDecision, 0, len(r.pages)*pageSize)
	for _, pg := range r.pages {
		out = append(out, pg[:]...)
	}
	return out[:n]
}

// replayBits renders a record's captured times as exact bit patterns.
func replayBits(r *replayState) string {
	var sb strings.Builder
	fmt.Fprint(&sb, r.times.Seq)
	for _, v := range append(append([]float64(nil), r.times.StartUS...), r.times.EndUS...) {
		fmt.Fprintf(&sb, " %x", math.Float64bits(v))
	}
	for _, v := range r.eval.Objectives {
		fmt.Fprintf(&sb, " %x", math.Float64bits(v))
	}
	fmt.Fprintf(&sb, " %x", math.Float64bits(r.eval.Violation))
	return sb.String()
}

func randomGenomeFor(p moea.Problem, rng *rand.Rand) *moea.Genome {
	n := p.NumTasks()
	g := &moea.Genome{Order: rng.Perm(n)}
	for t := 0; t < n; t++ {
		g.Genes = append(g.Genes, p.RandomGene(rng, t))
	}
	return g
}

// objectiveKnown reports whether objectiveValue accepts o.
func objectiveKnown(o SystemObjective) (ok bool) {
	defer func() { ok = recover() == nil }()
	objectiveValue(&schedule.Result{}, o)
	return
}

// evalBits renders an evaluation as exact bit patterns.
func evalBits(e moea.Evaluation) string {
	var sb strings.Builder
	for _, v := range e.Objectives {
		fmt.Fprintf(&sb, "%x ", math.Float64bits(v))
	}
	fmt.Fprintf(&sb, "| %x", math.Float64bits(e.Violation))
	return sb.String()
}

// TestSkippedAggregatesOracle is the oracle of skippedAggregates: for every
// ordered pair of system objectives, under each Eq. 5 bound and the memory
// constraint, both problems' evaluators — full and delta — must give the
// objectives and violation of objectiveVector and totalViolation over a
// plain RunWithComm result, which computes every aggregate, bit for bit.
// The objectives are enumerated by value up to the first one
// objectiveValue rejects, so a new objective is covered as soon as it is
// added.
func TestSkippedAggregatesOracle(t *testing.T) {
	var objs []SystemObjective
	for o := SystemObjective(0); objectiveKnown(o); o++ {
		objs = append(objs, o)
	}
	if len(objs) < 5 {
		t.Fatalf("enumerated %d objectives, want Makespan..PeakPower", len(objs))
	}

	base := synInstance(20, 41)
	base.Comm = schedule.CommModel{StartupUS: 4, PerKBUS: 0.3}
	for _, pt := range base.Platform.Types() {
		pt.LocalMemKB = 300 // read only by the EnforceMemory case
	}
	flib := filteredLib(t, base)
	problems := []struct {
		name string
		make func(*Instance) problemCore
	}{
		{"fcclr", func(in *Instance) problemCore { return newFCProblem(in, allFree) }},
		{"pfclr", func(in *Instance) problemCore { return newPFProblem(in, flib) }},
	}
	for _, pk := range problems {
		// Each bound is the tightest value among random genomes, so most
		// genomes violate it.
		rng := rand.New(rand.NewSource(43))
		p0 := pk.make(base)
		tight := schedule.Spec{MaxMakespanUS: math.Inf(1), MaxEnergyUJ: math.Inf(1), MaxPeakPowerW: math.Inf(1)}
		for i := 0; i < 5; i++ {
			g := randomGenomeFor(p0, rng)
			r, err := schedule.RunWithComm(base.Graph, base.Platform, g.Order, decisionsInto(p0, nil, g), base.Comm)
			if err != nil {
				t.Fatal(err)
			}
			tight.MaxMakespanUS = math.Min(tight.MaxMakespanUS, r.MakespanUS)
			tight.MinFunctionalRel = math.Max(tight.MinFunctionalRel, r.FunctionalRel)
			tight.MinMTTFHours = math.Max(tight.MinMTTFHours, r.MTTFHours)
			tight.MaxEnergyUJ = math.Min(tight.MaxEnergyUJ, r.EnergyUJ)
			tight.MaxPeakPowerW = math.Min(tight.MaxPeakPowerW, r.PeakPowerW)
		}
		constraints := []struct {
			name   string
			spec   schedule.Spec
			memory bool
		}{
			{"none", schedule.Spec{}, false},
			{"makespan", schedule.Spec{MaxMakespanUS: tight.MaxMakespanUS}, false},
			{"funcrel", schedule.Spec{MinFunctionalRel: tight.MinFunctionalRel}, false},
			{"mttf", schedule.Spec{MinMTTFHours: tight.MinMTTFHours}, false},
			{"energy", schedule.Spec{MaxEnergyUJ: tight.MaxEnergyUJ}, false},
			{"peakpower", schedule.Spec{MaxPeakPowerW: tight.MaxPeakPowerW}, false},
			{"memory", schedule.Spec{}, true},
		}
		for _, c := range constraints {
			violated := false
			for _, o1 := range objs {
				for _, o2 := range objs {
					if o1 == o2 {
						continue
					}
					inst := *base
					inst.Objectives = []SystemObjective{o1, o2}
					inst.Spec = c.spec
					inst.EnforceMemory = c.memory
					p := pk.make(&inst)
					check := func(what string, g *moea.Genome, got moea.Evaluation) {
						t.Helper()
						res, err := schedule.RunWithComm(inst.Graph, inst.Platform, g.Order, decisionsInto(p, nil, g), inst.Comm)
						if err != nil {
							t.Fatal(err)
						}
						want := moea.Evaluation{
							Objectives: objectiveVector(res, inst.Objectives),
							Violation:  totalViolation(&inst, res),
						}
						if evalBits(got) != evalBits(want) {
							t.Fatalf("%s/%s/%v,%v %s: got %v, want %v", pk.name, c.name, o1, o2, what, got, want)
						}
						violated = violated || want.Violation > 0
					}
					ev := p.(moea.ScratchProblem).NewEvaluator().(*coreEvaluator)
					grng := rand.New(rand.NewSource(47))
					for i := 0; i < 4; i++ {
						parent := randomGenomeFor(p, grng)
						check("full", parent, ev.Evaluate(parent))
						_, st := ev.EvaluateDelta(parent, nil, nil)
						for j := 0; j < 3; j++ {
							child := parent.Clone()
							for k := 0; k < j+1; k++ {
								task := grng.Intn(p.NumTasks())
								child.Genes[task] = p.MutateGene(grng, task, child.Genes[task])
							}
							if j == 2 {
								child.Order = grng.Perm(p.NumTasks())
							}
							got, _ := ev.EvaluateDelta(child, parent, st)
							check(fmt.Sprintf("delta %d", j), child, got)
						}
					}
				}
			}
			if c.name != "none" && !violated {
				t.Errorf("%s/%s: no genome violates the constraint; the case checks nothing", pk.name, c.name)
			}
		}
	}
}

// TestDeltaResumeByteIdentical interrupts a delta-evaluated Proposed run
// mid-stage and checks the resumed run still matches the delta-off
// reference bit-exactly — checkpointed parents carry no delta state, so
// the first post-resume generation silently falls back to full evaluation
// and must land on the same floats.
func TestDeltaResumeByteIdentical(t *testing.T) {
	inst := sobelInstance()
	flib := filteredLib(t, inst)
	cfg := RunConfig{Pop: 24, Gens: 10, Seed: 3}

	refCfg := cfg
	refCfg.fullEval = true
	ref, err := Proposed(inst, refCfg, flib)
	if err != nil {
		t.Fatal(err)
	}
	want := frontBytes(t, ref)

	ck := newMemCheckpointer()
	ctx, cancel := context.WithCancel(context.Background())
	icfg := cfg
	icfg.Ctx = ctx
	icfg.Checkpoint = ck
	icfg.CheckpointEvery = 2
	icfg.Progress = func(ev ProgressEvent) {
		if ev.Stage == "fcclr" && ev.Generation == 5 {
			cancel()
		}
	}
	if _, err := Proposed(inst, icfg, flib); err == nil {
		t.Fatal("interrupted run returned no error")
	}

	rcfg := cfg
	rcfg.Checkpoint = ck
	res, err := Proposed(inst, rcfg, flib)
	if err != nil {
		t.Fatal(err)
	}
	if got := frontBytes(t, res); got != want {
		t.Fatal("delta run resumed from checkpoint differs from delta-off reference")
	}
}

// TestAccelCountersMove checks the process-wide acceleration counters
// actually advance under a delta-evaluated run.
func TestAccelCountersMove(t *testing.T) {
	before := AccelTotals()
	inst := sobelInstance()
	if _, err := FcCLR(inst, smallCfg(91)); err != nil {
		t.Fatal(err)
	}
	after := AccelTotals()
	if after.DeltaPrefixRuns+after.DeltaParentReuse == before.DeltaPrefixRuns+before.DeltaParentReuse {
		t.Fatal("delta counters did not advance")
	}
}

// TestFcCLRParallelMissesComputeOnce runs fcCLR on fresh instances with
// four evaluation workers and with one. Workers fault metric-cache misses
// in through the cache's single-flight slots, so both runs must return the
// same front and solve exactly one chain pair per cache entry.
func TestFcCLRParallelMissesComputeOnce(t *testing.T) {
	run := func(workers int) *Front {
		inst := synInstance(20, 31)
		before := AccelTotals()
		front, err := FcCLR(inst, RunConfig{Pop: 24, Gens: 8, Seed: 31, workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		after := AccelTotals()
		solves := after.PairedSolves + after.SoloSolves - before.PairedSolves - before.SoloSolves
		entries := inst.MetricsCacheStats().Entries
		if entries == 0 || solves != uint64(entries) {
			t.Errorf("workers %d: %d chain solves for %d metric-cache entries", workers, solves, entries)
		}
		return front
	}
	if par, ser := run(4), run(1); !reflect.DeepEqual(par, ser) {
		t.Fatal("fcCLR fronts differ between 4 workers and 1")
	}
}

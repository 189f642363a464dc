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
	"repro/internal/pareto"
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
					cfg.DisableDelta = true
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
	cfg.DisableDelta = true
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
			full.DisableDelta = true
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
		"pe":      func(d *schedule.TaskDecision) { d.PE++ },
		"eta":     func(d *schedule.TaskDecision) { d.Metrics.EtaHours *= 2 },
		"minex":   func(d *schedule.TaskDecision) { d.Metrics.MinExTimeUS++ },
		"avgex":   func(d *schedule.TaskDecision) { d.Metrics.AvgExTimeUS++ },
		"errprob": func(d *schedule.TaskDecision) { d.Metrics.ErrProb /= 2 },
		"mttf":    func(d *schedule.TaskDecision) { d.Metrics.MTTFHours++ },
		"power":   func(d *schedule.TaskDecision) { d.Metrics.PowerW++ },
		"energy":  func(d *schedule.TaskDecision) { d.Metrics.EnergyUJ++ },
		"temp":    func(d *schedule.TaskDecision) { d.Metrics.TempC++ },
		"mem":     func(d *schedule.TaskDecision) { d.MemKB++ },
		"negzero": func(d *schedule.TaskDecision) { d.MemKB = math.Copysign(0, -1) },
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
// run) — and checks the parent's record is unchanged bit for bit, and each
// child's evaluation equals a from-scratch one.
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
	want := fmt.Sprintf("%v|%v", rec.decisions, replayBits(rec))

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
		if crec == rec || &crec.decisions[0] == &rec.decisions[0] {
			t.Fatalf("reorder=%v: child shares the parent's record", reorder)
		}
		if full := p.Evaluate(child); !reflect.DeepEqual(got, full) {
			t.Fatalf("reorder=%v: delta %+v, full %+v", reorder, got, full)
		}
		if now := fmt.Sprintf("%v|%v", rec.decisions, replayBits(rec)); now != want {
			t.Fatalf("reorder=%v: parent record changed by a child's evaluation", reorder)
		}
	}
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

func randomGenomeFor(p *fcProblem, rng *rand.Rand) *moea.Genome {
	n := p.NumTasks()
	g := &moea.Genome{Order: rng.Perm(n)}
	for t := 0; t < n; t++ {
		g.Genes = append(g.Genes, p.RandomGene(rng, t))
	}
	return g
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
	refCfg.DisableDelta = true
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

// frontHypervolumes measures both fronts against one shared reference
// point dominated by every point of either front, so the volumes are
// directly comparable.
func frontHypervolumes(a, b *Front) (hvA, hvB float64) {
	if len(a.Points) == 0 || len(b.Points) == 0 {
		return 0, 0
	}
	m := len(a.Points[0].Objectives)
	ref := make([]float64, m)
	collect := func(f *Front) [][]float64 {
		pts := make([][]float64, len(f.Points))
		for i, p := range f.Points {
			pts[i] = p.Objectives
			for j, v := range p.Objectives {
				if v > ref[j] {
					ref[j] = v
				}
			}
		}
		return pts
	}
	ptsA, ptsB := collect(a), collect(b)
	for j := range ref {
		ref[j] = ref[j]*1.1 + 1
	}
	return pareto.Hypervolume(ptsA, ref), pareto.Hypervolume(ptsB, ref)
}

// TestSurrogateParity is the screening quality contract across random
// instances, compared at an equal full-evaluation budget: with fraction
// 0.5 a screened run over 2G generations spends exactly as many full
// evaluations as an exact run over G, and must then hold at least 90% of
// its hypervolume. Every reported point must be exactly evaluated
// (objectives consistent with its QoS).
func TestSurrogateParity(t *testing.T) {
	for _, tc := range []struct {
		tasks int
		seed  int64
	}{
		{10, 31}, {14, 5}, {18, 77},
	} {
		t.Run(fmt.Sprintf("tasks%d/seed%d", tc.tasks, tc.seed), func(t *testing.T) {
			inst := synInstance(tc.tasks, tc.seed)
			cfg := RunConfig{Pop: 24, Gens: 12, Seed: tc.seed}
			exact, err := FcCLR(inst, cfg)
			if err != nil {
				t.Fatal(err)
			}
			scfg := cfg
			scfg.Gens = 2 * cfg.Gens
			scfg.SurrogateFraction = 0.5
			screened, err := FcCLR(inst, scfg)
			if err != nil {
				t.Fatal(err)
			}
			// The final exact pass over surviving approximate solutions may
			// add up to one extra population of evaluations.
			if screened.Evaluations > exact.Evaluations+cfg.Pop {
				t.Fatalf("screened run overspent: %d full evaluations vs %d exact",
					screened.Evaluations, exact.Evaluations)
			}
			for _, p := range screened.Points {
				if p.Objectives[0] != p.QoS.MakespanUS {
					t.Fatal("screened front contains a non-exact point")
				}
			}
			hvExact, hvScreened := frontHypervolumes(exact, screened)
			if hvExact > 0 && hvScreened < 0.9*hvExact {
				t.Fatalf("screened hypervolume %.4g below 90%% of exact %.4g", hvScreened, hvExact)
			}
		})
	}
}

// TestSurrogateRequiresNSGA2 pins the engine gate at the core layer.
func TestSurrogateRequiresNSGA2(t *testing.T) {
	inst := sobelInstance()
	cfg := smallCfg(3)
	cfg.Engine = MOEAD
	cfg.SurrogateFraction = 0.5
	if _, err := FcCLR(inst, cfg); err == nil {
		t.Fatal("surrogate screening on MOEA/D accepted")
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
	scfg := smallCfg(92)
	scfg.SurrogateFraction = 0.5
	if _, err := FcCLR(inst, scfg); err != nil {
		t.Fatal(err)
	}
	final := AccelTotals()
	if final.ProxyEvals == after.ProxyEvals || final.ScreenedOut == after.ScreenedOut {
		t.Fatal("surrogate counters did not advance")
	}
}

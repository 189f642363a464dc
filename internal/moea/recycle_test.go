package moea

import (
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// releaseProblem is a delta-evaluating problem that polices the engines'
// recycling. Every state records the genome it was evaluated on and its
// parent state; a state released twice, or passed back as a parent after
// its release, or a parent genome that no longer matches the state it was
// evaluated to (a recycled genome still held by a population member), is
// a test failure. Children equal to their parent get the parent's own
// state, as the core evaluator's parent-reuse path does.
type releaseProblem struct {
	zdtProblem
	t *testing.T

	mu       sync.Mutex
	released int
}

type releaseState struct {
	genome   *Genome // a copy of the evaluated genome
	eval     Evaluation
	parent   *releaseState
	released bool
}

// Evaluate trades an order term off between the ZDT objectives, so both
// crossovers matter and the first front outgrows a small population, and
// forbids a small f1, so the archive rejects some children.
func (p *releaseProblem) Evaluate(g *Genome) Evaluation {
	ev := p.zdtProblem.Evaluate(g)
	d := 0.0
	for pos, task := range g.Order {
		d += math.Abs(float64(pos - task))
	}
	ev.Objectives[0] += d / 1000
	ev.Objectives[1] -= d / 1000
	if ev.Objectives[0] < 0.1 {
		ev.Violation = 0.1 - ev.Objectives[0]
	}
	return ev
}

func (p *releaseProblem) EvaluateDelta(g, parent *Genome, parentState any) (Evaluation, any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var ps *releaseState
	if parentState != nil {
		ps = parentState.(*releaseState)
		if ps.released {
			p.t.Errorf("a released state was passed back as a parent state")
		}
		if !reflect.DeepEqual(ps.genome, parent) {
			p.t.Errorf("a parent's genome changed after its evaluation (recycled while live)")
		}
		if reflect.DeepEqual(g, parent) {
			return ps.eval, ps
		}
	}
	st := &releaseState{genome: g.Clone(), eval: p.Evaluate(g), parent: ps}
	return st.eval, st
}

func (p *releaseProblem) Release(state, parentState any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if state == parentState {
		return
	}
	st := state.(*releaseState)
	if st.released {
		p.t.Errorf("a state was released twice")
	}
	if ps, _ := parentState.(*releaseState); ps != st.parent {
		p.t.Errorf("a state was released with a parent state it was not evaluated against")
	}
	st.released = true
	p.released++
}

// checkMembers fails when a checkpointed population or archive member's
// objectives are not its genome's: the snapshot of a solution whose genome
// was recycled while it was still a member.
func (p *releaseProblem) checkMembers(t *testing.T, cp *Checkpoint) {
	for _, set := range [][]CheckpointSolution{cp.Population, cp.Archive} {
		for _, cs := range set {
			ev := p.Evaluate(&Genome{Order: cs.Order, Genes: cs.Genes})
			for j, b := range cs.Objectives {
				if math.Float64bits(ev.Objectives[j]) != b {
					t.Fatalf("generation %d: a member's objectives do not match its genome", cp.Generation)
				}
			}
		}
	}
}

// TestRecyclingKeepsLiveStateIntact runs both engines on a problem that
// polices the release contract, with checkpoints after every generation
// checking that population and archive members still own their genomes,
// and a small archive cap, so truncation drops members too. It requires
// the fronts to equal a run without delta evaluation, whose children are
// never released.
func TestRecyclingKeepsLiveStateIntact(t *testing.T) {
	for _, eng := range []struct {
		name string
		run  func(Problem, Params, []*Genome) (*Result, error)
	}{{"nsga2", Run}, {"moead", RunMOEAD}} {
		t.Run(eng.name, func(t *testing.T) {
			p := &releaseProblem{zdtProblem: zdtProblem{n: 12, levels: 8}, t: t}
			params := DefaultParams(6, 60, 5)
			params.Workers = 2
			params.archiveLimit = 8
			params.CheckpointEvery = 1
			params.OnCheckpoint = func(cp *Checkpoint) { p.checkMembers(t, cp) }
			got, err := eng.run(p, params, nil)
			if err != nil {
				t.Fatal(err)
			}
			if p.released == 0 {
				t.Fatal("no child state was released")
			}
			// Embedding only the Problem interface hides EvaluateDelta:
			// every child is evaluated in full.
			params.OnCheckpoint = nil
			want, err := eng.run(struct{ Problem }{p}, params, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.EqualFunc(got.Front, want.Front, func(a, b Solution) bool {
				return reflect.DeepEqual(a, b)
			}) {
				t.Fatal("fronts differ with and without delta evaluation")
			}
		})
	}
}

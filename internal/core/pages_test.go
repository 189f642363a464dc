package core

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/moea"
	"repro/internal/schedule"
)

// pageOracle wraps a problem so that every delta evaluation its evaluators
// make is checked against the copy-on-write page invariants:
//
//   - a record's pages, put together, equal decisionsInto(genome) bit for
//     bit;
//   - a child's page whose decisions equal its parent's is the parent's
//     page, and a page with a changed decision is new — no record seen so
//     far holds it;
//   - no record ever changes once returned (checked at every use as a
//     parent and again by verifyAll) until the engine releases it.
//
// A released record and the pages the oracle saw it make are forgotten,
// so they may come back in later records; a page or record released while
// a live record still holds it shows up as a changed record or as a
// "new" page already seen. Evaluations run on the engines' worker
// goroutines, so a violation is reported with Errorf.
type pageOracle struct {
	problemCore
	t *testing.T

	mu   sync.Mutex
	recs map[*replayState]string // record → fingerprint when returned
	seen map[*decisionPage]bool
	// children counts records made against a parent; shared and copied
	// count their pages by outcome, and released the records released, so
	// a run cannot pass vacuously.
	children, shared, copied, released int
}

func newPageOracle(t *testing.T, p problemCore) *pageOracle {
	return &pageOracle{problemCore: p, t: t, recs: map[*replayState]string{}, seen: map[*decisionPage]bool{}}
}

func (o *pageOracle) NewEvaluator() moea.Evaluator {
	return &pageCheckingEvaluator{o: o, inner: newCoreEvaluator(o.problemCore)}
}

type pageCheckingEvaluator struct {
	o     *pageOracle
	inner *coreEvaluator
}

func (e *pageCheckingEvaluator) Evaluate(g *moea.Genome) moea.Evaluation {
	return e.inner.Evaluate(g)
}

func (e *pageCheckingEvaluator) EvaluateDelta(g, parent *moea.Genome, pst any) (moea.Evaluation, any) {
	ev, st := e.inner.EvaluateDelta(g, parent, pst)
	prec, _ := pst.(*replayState)
	if parent == nil {
		prec = nil
	}
	e.o.check(g, prec, st.(*replayState))
	return ev, st
}

// Release forwards to the core evaluator and forgets the record and the
// pages it made itself: those its parent's table does not hold.
func (e *pageCheckingEvaluator) Release(state, pst any) {
	rec, _ := state.(*replayState)
	prec, _ := pst.(*replayState)
	pages := slices.Clone(rec.pages)
	e.inner.Release(state, pst)
	if rec == prec {
		return
	}
	o := e.o
	o.mu.Lock()
	defer o.mu.Unlock()
	o.released++
	delete(o.recs, rec)
	for k, pg := range pages {
		if prec == nil || pg != prec.pages[k] {
			delete(o.seen, pg)
		}
	}
}

func (o *pageOracle) check(g *moea.Genome, prec, rec *replayState) {
	o.t.Helper()
	n := o.NumTasks()
	want := decisionsInto(o.problemCore, nil, g)
	if len(rec.pages) != numPages(n) {
		o.t.Errorf("record has %d pages, want %d", len(rec.pages), numPages(n))
		return
	}
	if got := pagedDecisions(rec, n); decisionBits(got) != decisionBits(want) {
		o.t.Error("a record's pages differ from its genome's decode")
		return
	}

	o.mu.Lock()
	defer o.mu.Unlock()
	if prec != nil {
		if fp, ok := o.recs[prec]; !ok || fp != recordFingerprint(prec, n) {
			o.t.Errorf("parent record changed after it was returned (known %t)", ok)
			return
		}
	}
	if _, ok := o.recs[rec]; ok {
		// The parent's own record, returned for a child with identical
		// schedule inputs.
		if rec != prec {
			o.t.Error("a child was given a record that is not its parent's")
		}
		return
	}
	if prec != nil {
		o.children++
		for k := range rec.pages {
			lo, hi := k*pageSize, min((k+1)*pageSize, n)
			same := decisionBits(pagedDecisions(prec, n)[lo:hi]) == decisionBits(want[lo:hi])
			switch {
			case same && rec.pages[k] != prec.pages[k]:
				o.t.Errorf("page %d is unchanged but not shared with the parent", k)
				return
			case !same && (rec.pages[k] == prec.pages[k] || o.seen[rec.pages[k]]):
				o.t.Errorf("page %d holds a changed decision but is not a new page", k)
				return
			case same:
				o.shared++
			default:
				o.copied++
			}
		}
	} else {
		for k, pg := range rec.pages {
			if o.seen[pg] {
				o.t.Errorf("page %d of a parentless record is shared", k)
				return
			}
		}
	}
	for _, pg := range rec.pages {
		o.seen[pg] = true
	}
	o.recs[rec] = recordFingerprint(rec, n)
}

// verifyAll checks every record returned during the run is unchanged.
func (o *pageOracle) verifyAll() {
	o.t.Helper()
	for rec, fp := range o.recs {
		if recordFingerprint(rec, o.NumTasks()) != fp {
			o.t.Fatal("a record changed after it was returned")
		}
	}
}

// recordFingerprint renders a record's decisions, times and evaluation bit
// for bit.
func recordFingerprint(r *replayState, n int) string {
	return decisionBits(pagedDecisions(r, n)) + "|" + replayBits(r)
}

// decisionBits renders decisions with every float as its bit pattern.
func decisionBits(ds []schedule.TaskDecision) string {
	var sb strings.Builder
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		case reflect.Float64:
			fmt.Fprintf(&sb, "%x ", math.Float64bits(v.Float()))
		default:
			fmt.Fprintf(&sb, "%v ", v)
		}
	}
	for i := range ds {
		walk(reflect.ValueOf(ds[i]))
		sb.WriteByte(';')
	}
	return sb.String()
}

// TestReplayPagesOracle runs both engines for several generations on
// pfCLR and fcCLR problems — a task count that leaves the last page
// partly used, communication delays on — and checks every record against
// the page invariants of pageOracle.
func TestReplayPagesOracle(t *testing.T) {
	inst := synInstance(21, 17)
	inst.Comm = schedule.CommModel{StartupUS: 4, PerKBUS: 0.3}
	flib := filteredLib(t, inst)
	problems := []struct {
		name string
		p    problemCore
	}{
		{"pfclr", newPFProblem(inst, flib)},
		{"fcclr", newFCProblem(inst, allFree)},
	}
	engines := []struct {
		name string
		run  func(moea.Problem, moea.Params, []*moea.Genome) (*moea.Result, error)
	}{
		{"nsga2", moea.Run},
		{"moead", moea.RunMOEAD},
	}
	for _, pc := range problems {
		for _, ec := range engines {
			t.Run(pc.name+"/"+ec.name, func(t *testing.T) {
				o := newPageOracle(t, pc.p)
				params := moea.DefaultParams(16, 10, 5)
				params.Workers = 2
				params.MutationProb = 0.1
				if _, err := ec.run(o, params, nil); err != nil {
					t.Fatal(err)
				}
				o.verifyAll()
				if o.children == 0 || o.shared == 0 || o.copied == 0 || o.released == 0 {
					t.Fatalf("vacuous run: %d children, %d shared and %d copied pages, %d released",
						o.children, o.shared, o.copied, o.released)
				}
			})
		}
	}
}

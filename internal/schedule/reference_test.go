package schedule

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/platform"
	"repro/internal/taskgraph"
	"repro/internal/tgff"
)

// referenceSchedule is the list scheduler of §III.D written out with none
// of Evaluator's machinery, as the oracle of its ready set and adjacency:
// each step rescans the whole priority list for the first task whose
// predecessors have all finished (O(n²) over a run), and the dependency
// edges come from Graph.Edges, not from the flat adjacency. It returns the
// pop order and the full Result. The floats follow the same operation
// order as Evaluator — per-PE busy sums in pop order, the other sums in
// task order — so the two must agree bit for bit.
func referenceSchedule(g *taskgraph.Graph, p *platform.Platform, prio []int, dec []TaskDecision, comm CommModel) ([]int32, *Result) {
	n := g.NumTasks()
	type input struct {
		from int
		kb   float64
	}
	inputs := make([][]input, n)
	for _, e := range g.Edges() {
		inputs[e.To] = append(inputs[e.To], input{e.From, e.DataKB})
	}
	res := &Result{
		StartUS:  make([]float64, n),
		EndUS:    make([]float64, n),
		PEBusyUS: make([]float64, p.NumPEs()),
		PEMemKB:  make([]float64, p.NumPEs()),
	}
	done := make([]bool, n)
	peFree := make([]float64, p.NumPEs())
	var seq []int32
	for len(seq) < n {
		pick := -1
		for _, t := range prio {
			if done[t] {
				continue
			}
			eligible := true
			for _, in := range inputs[t] {
				if !done[in.from] {
					eligible = false
					break
				}
			}
			if eligible {
				pick = t
				break
			}
		}
		if pick < 0 {
			panic("reference scheduler: no eligible task")
		}
		d := dec[pick]
		readyAt := 0.0
		for _, in := range inputs[pick] {
			at := res.EndUS[in.from]
			if dec[in.from].PE != d.PE {
				at += comm.Delay(in.kb)
			}
			readyAt = math.Max(readyAt, at)
		}
		start := math.Max(readyAt, peFree[d.PE])
		res.StartUS[pick] = start
		res.EndUS[pick] = start + d.Metrics.AvgExTimeUS
		peFree[d.PE] = res.EndUS[pick]
		res.PEBusyUS[d.PE] += d.Metrics.AvgExTimeUS
		done[pick] = true
		seq = append(seq, int32(pick))
	}

	total := 0.0
	for _, t := range g.Tasks() {
		total += t.Criticality
	}
	damage := make([]float64, p.NumPEs())
	for t, task := range g.Tasks() {
		d := dec[t]
		res.MakespanUS = math.Max(res.MakespanUS, res.EndUS[t])
		res.FunctionalRel += (1 - d.Metrics.ErrProb) * (task.Criticality / total)
		res.PEMemKB[d.PE] += d.MemKB
		damage[d.PE] += d.Metrics.AvgExTimeUS / d.Metrics.MTTFHours
	}
	res.ErrProb = 1 - res.FunctionalRel
	res.MTTFHours = math.Inf(1)
	for _, dmg := range damage {
		if dmg > 0 {
			res.MTTFHours = math.Min(res.MTTFHours, g.PeriodUS/dmg)
		}
	}
	res.PeakPowerW, res.EnergyUJ = oraclePower(res, dec)
	return seq, res
}

// randomReferenceInstance draws an n-task tgff DAG of random layer width
// and fan-in, a random priority permutation, random decisions (execution
// times sometimes small integers, so start and end times tie) and a
// communication model that is on or off.
func randomReferenceInstance(rng *rand.Rand, n int, commOn bool) (*taskgraph.Graph, *platform.Platform, []int, []TaskDecision, CommModel) {
	cfg := tgff.DefaultConfig(n)
	cfg.AvgLayerWidth = 1 + rng.Intn(n)
	cfg.MaxInDegree = 1 + rng.Intn(4)
	g := tgff.MustGenerate(cfg, rng.Int63())
	p := platform.Default()
	integral := rng.Intn(2) == 0
	dec := make([]TaskDecision, n)
	for t := range dec {
		exT := 1 + rng.Float64()*500
		if integral {
			exT = float64(1 + rng.Intn(8))
		}
		dec[t] = TaskDecision{
			PE:      rng.Intn(p.NumPEs()),
			Metrics: metrics(exT, rng.Float64()*3, 1e4+rng.Float64()*1e6, rng.Float64()*0.3),
			MemKB:   rng.Float64() * 100,
		}
	}
	var comm CommModel
	if commOn {
		comm = CommModel{StartupUS: rng.Float64() * 10, PerKBUS: rng.Float64()}
	}
	return g, p, rng.Perm(n), dec, comm
}

// checkMatchesReference runs ev and the reference scheduler on one input
// and compares the pop order, every time and every aggregate bit for bit.
func checkMatchesReference(t *testing.T, ev *Evaluator, g *taskgraph.Graph, p *platform.Platform, prio []int, dec []TaskDecision, comm CommModel, label string) {
	t.Helper()
	var capture SeqTimes
	got, err := ev.RunWithCommCapture(g, p, prio, dec, comm, &capture)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	seq, want := referenceSchedule(g, p, prio, dec, comm)
	for i := range seq {
		if capture.Seq[i] != seq[i] {
			t.Fatalf("%s: pop %d is task %d, reference pops task %d", label, i, capture.Seq[i], seq[i])
		}
	}
	if !resultsEqualBits(want, got) {
		t.Fatalf("%s: result differs from the reference scheduler\ngot  %+v\nwant %+v", label, *got, *want)
	}
}

// TestEvaluatorMatchesReference checks the bitset ready set and the flat
// adjacency against the rescanning reference on random DAGs of 1–300
// tasks, so the ready set spans up to five words, with the communication
// model on and off. One Evaluator serves every size in turn, so stale
// scratch from a larger run would show.
func TestEvaluatorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ev := NewEvaluator()
	for i := 0; i < 200; i++ {
		n := 1 + rng.Intn(300)
		commOn := i%2 == 1
		g, p, prio, dec, comm := randomReferenceInstance(rng, n, commOn)
		checkMatchesReference(t, ev, g, p, prio, dec, comm, fmt.Sprintf("case %d (n=%d comm=%v)", i, n, commOn))
	}
}

// FuzzEvaluatorMatchesReference is TestEvaluatorMatchesReference over
// fuzzed seeds, sizes and communication settings. The checked-in corpus
// holds one task, one ready-set word exactly, one word plus one task, and
// the largest size.
func FuzzEvaluatorMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, size uint16, commOn bool) {
		n := 1 + int(size%300)
		rng := rand.New(rand.NewSource(seed))
		g, p, prio, dec, comm := randomReferenceInstance(rng, n, commOn)
		checkMatchesReference(t, NewEvaluator(), g, p, prio, dec, comm, fmt.Sprintf("n=%d", n))
	})
}

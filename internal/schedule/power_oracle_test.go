package schedule

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/platform"
	"repro/internal/taskgraph"
)

// powerEvents is the original Eq. 4 event order — events listed in task
// order and sorted with sort.Sort — kept as the oracle for the pop-order
// insertion sweep of finish.
type powerEvents []powerEvent

func (p *powerEvents) Len() int      { return len(*p) }
func (p *powerEvents) Swap(i, j int) { (*p)[i], (*p)[j] = (*p)[j], (*p)[i] }
func (p *powerEvents) Less(i, j int) bool {
	a, b := (*p)[i], (*p)[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.delta < b.delta
}

// oraclePower recomputes PeakPowerW and EnergyUJ from a result's times the
// way the evaluator did before the pop-order sweep.
func oraclePower(res *Result, decisions []TaskDecision) (peak, energy float64) {
	var events powerEvents
	for t := range decisions {
		w := decisions[t].Metrics.PowerW
		events = append(events,
			powerEvent{at: res.StartUS[t], delta: w},
			powerEvent{at: res.EndUS[t], delta: -w},
		)
		energy += decisions[t].Metrics.AvgExTimeUS * w
	}
	sort.Sort(&events)
	cur := 0.0
	for _, e := range events {
		cur += e.delta
		if cur > peak {
			peak = cur
		}
	}
	return peak, energy
}

// popOrderInversions counts the element moves insertion sort needs on the
// pop-order event list of a full run: more than the budget means finish
// took the run-merging fallback.
func popOrderInversions(ev *Evaluator, res *Result, decisions []TaskDecision) int {
	var events []powerEvent
	for _, t := range ev.seq {
		w := decisions[t].Metrics.PowerW
		events = append(events,
			powerEvent{at: res.StartUS[t], delta: w},
			powerEvent{at: res.EndUS[t], delta: -w},
		)
	}
	inv := 0
	for i := range events {
		for j := i + 1; j < len(events); j++ {
			if eventLess(events[j], events[i]) {
				inv++
			}
		}
	}
	return inv
}

type powerCase struct {
	name string
	g    *taskgraph.Graph
	p    *platform.Platform
	prio []int
	dec  []TaskDecision
	comm CommModel
}

// checkPowerOracle runs the case through Run and through RunWithCommDelta
// (replaying the full run's pop order with every task marked changed, and
// again with none) and compares PeakPowerW and EnergyUJ bit for bit with
// the oracle. It returns the full run's insertion-sort inversion count.
func checkPowerOracle(t *testing.T, c powerCase) int {
	t.Helper()
	ev := NewEvaluator()
	var capt SeqTimes
	res, err := ev.RunWithCommCapture(c.g, c.p, c.prio, c.dec, c.comm, &capt)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	peak, energy := oraclePower(res, c.dec)
	check := func(path string, r *Result) {
		if math.Float64bits(r.PeakPowerW) != math.Float64bits(peak) ||
			math.Float64bits(r.EnergyUJ) != math.Float64bits(energy) {
			t.Fatalf("%s (%s): peak %v energy %v, oracle %v %v", c.name, path, r.PeakPowerW, r.EnergyUJ, peak, energy)
		}
	}
	check("full", res)
	inv := popOrderInversions(ev, res, c.dec)

	if plain, err := NewEvaluator().Run(c.g, c.p, c.prio, c.dec); err != nil {
		t.Fatalf("%s: %v", c.name, err)
	} else if c.comm == (CommModel{}) {
		check("Run", plain)
	}
	n := c.g.NumTasks()
	for _, all := range []bool{true, false} {
		changed := make([]bool, n)
		for i := range changed {
			changed[i] = all
		}
		dres, err := NewEvaluator().RunWithCommDelta(c.g, c.p, c.prio, c.dec, c.comm, &capt, changed, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		check(fmt.Sprintf("delta all=%v", all), dres)
	}
	return inv
}

// independentGraph has n tasks and no edges.
func independentGraph(n int) *taskgraph.Graph {
	b := taskgraph.NewBuilder("independent", 1e4)
	for i := 0; i < n; i++ {
		b.AddTask("t", 0, 1)
	}
	return b.MustBuild()
}

// groupedByPE is the sweep's worst case: independent tasks spread over
// every PE, with the priority list grouped by PE, so each PE's events come
// as one time-sorted run and pop order interleaves the runs maximally.
func groupedByPE(n int) powerCase {
	p := platform.Default()
	dec := make([]TaskDecision, n)
	var prio []int
	for pe := 0; pe < p.NumPEs(); pe++ {
		for t := pe; t < n; t += p.NumPEs() {
			prio = append(prio, t)
		}
	}
	for t := range dec {
		dec[t] = TaskDecision{PE: t % p.NumPEs(), Metrics: metrics(50+float64(t%7), 1+float64(t%5)/4, 1e5, 0)}
	}
	return powerCase{name: fmt.Sprintf("grouped-by-PE n=%d", n), g: independentGraph(n), p: p, prio: prio, dec: dec}
}

// TestPeakPowerMatchesSortOracle pins the pop-order sweep of finish to the
// original sort.Sort event order: Float64bits of PeakPowerW and EnergyUJ
// from the full and delta paths equal the oracle's, on random graphs and
// decisions and on the edge cases of the sweep.
func TestPeakPowerMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 400; i++ {
		n := 1 + rng.Intn(60)
		g, p, prio, dec := randomCommInstance(rng, n)
		var comm CommModel
		if rng.Intn(2) == 1 {
			comm = CommModel{StartupUS: rng.Float64() * 10, PerKBUS: rng.Float64()}
		}
		checkPowerOracle(t, powerCase{name: fmt.Sprintf("random %d", i), g: g, p: p, prio: prio, dec: dec, comm: comm})
	}

	p := platform.Default()
	uniform := func(n int, f func(t int) TaskDecision) []TaskDecision {
		dec := make([]TaskDecision, n)
		for t := range dec {
			dec[t] = f(t)
		}
		return dec
	}
	ident := func(n int) []int {
		prio := make([]int, n)
		for i := range prio {
			prio[i] = i
		}
		return prio
	}

	// Many tasks starting at 0: one per PE, equal and unequal powers.
	n0 := 4 * p.NumPEs()
	checkPowerOracle(t, powerCase{name: "many start at 0", g: independentGraph(n0), p: p, prio: ident(n0),
		dec: uniform(n0, func(t int) TaskDecision {
			return TaskDecision{PE: t % p.NumPEs(), Metrics: metrics(100, float64(1+t%3), 1e5, 0)}
		})})

	// Back-to-back tasks on one PE: every end equals the next start.
	chain := taskgraph.NewBuilder("chain", 1e4)
	for i := 0; i < 20; i++ {
		chain.AddTask("t", 0, 1)
		if i > 0 {
			chain.AddEdge(i-1, i)
		}
	}
	checkPowerOracle(t, powerCase{name: "back-to-back", g: chain.MustBuild(), p: p, prio: ident(20),
		dec: uniform(20, func(t int) TaskDecision {
			return TaskDecision{PE: 0, Metrics: metrics(0.5+float64(t%3)*0.25, 1+float64(t%2), 1e5, 0)}
		})})

	// Zero-power tasks mixed with powered ones (−0 and +0 deltas).
	g, _, prio, dec := randomCommInstance(rand.New(rand.NewSource(3)), 40)
	for t := range dec {
		if t%2 == 0 {
			dec[t].Metrics.PowerW = 0
		}
	}
	checkPowerOracle(t, powerCase{name: "zero power", g: g, p: p, prio: prio, dec: dec})
	for t := range dec {
		dec[t].Metrics.PowerW = 0
	}
	checkPowerOracle(t, powerCase{name: "all zero power", g: g, p: p, prio: prio, dec: dec})

	// start ≫ exec time: after a 1e18 µs task, start + exec == start, so
	// each later task's start and end events share one instant.
	huge := taskgraph.NewBuilder("huge", 1e4)
	for i := 0; i < 12; i++ {
		huge.AddTask("t", 0, 1)
		if i > 0 {
			huge.AddEdge(0, i)
		}
	}
	checkPowerOracle(t, powerCase{name: "start >> exec", g: huge.MustBuild(), p: p, prio: ident(12),
		dec: uniform(12, func(t int) TaskDecision {
			exT := 1.0
			if t == 0 {
				exT = 1e18
			}
			return TaskDecision{PE: t % p.NumPEs(), Metrics: metrics(exT, 1+float64(t%4), 1e5, 0)}
		})})

	// The grouped-by-PE wide graph exceeds the insertion budget and takes
	// the run-merging fallback.
	for _, n := range []int{100, 400} {
		c := groupedByPE(n)
		if inv := checkPowerOracle(t, c); inv <= insertionMovesPerEvent*2*n {
			t.Fatalf("%s: %d inversions stay within the insertion budget; the fallback is untested", c.name, inv)
		}
	}
}

// BenchmarkEvaluatorGroupedByPE times the sweep's fallback shape.
func BenchmarkEvaluatorGroupedByPE(b *testing.B) {
	for _, n := range []int{100, 400} {
		c := groupedByPE(n)
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			ev := NewEvaluator()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ev.Run(c.g, c.p, c.prio, c.dec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestRunRejectsNonFiniteInputs: execution times must be positive and
// finite, powers non-negative and finite; zero power stays legal.
func TestRunRejectsNonFiniteInputs(t *testing.T) {
	g := diamond()
	p := platform.Default()
	cases := []struct {
		name    string
		exT, w  float64
		wantErr string
	}{
		{"zero power", 100, 0, ""},
		{"NaN time", math.NaN(), 1, "non-finite execution time"},
		{"+Inf time", math.Inf(1), 1, "non-finite execution time"},
		{"-Inf time", math.Inf(-1), 1, "non-positive execution time"},
		{"negative power", 100, -1, "negative or non-finite power"},
		{"NaN power", 100, math.NaN(), "negative or non-finite power"},
		{"+Inf power", 100, math.Inf(1), "negative or non-finite power"},
		{"-Inf power", 100, math.Inf(-1), "negative or non-finite power"},
	}
	for _, c := range cases {
		dec := make([]TaskDecision, 4)
		for i := range dec {
			dec[i] = TaskDecision{PE: 0, Metrics: metrics(100, 1, 1e5, 0)}
		}
		dec[2].Metrics.AvgExTimeUS = c.exT
		dec[2].Metrics.PowerW = c.w
		_, err := Run(g, p, []int{0, 1, 2, 3}, dec)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error %v", c.name, err)
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), "task 2 has "+c.wantErr)):
			t.Errorf("%s: error %v, want %q", c.name, err, c.wantErr)
		}
	}
}

package schedule

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/platform"
	"repro/internal/taskgraph"
)

// randomCommInstance builds a random DAG with data-bearing edges, a random
// priority permutation and random decisions — the delta path must be exact
// under communication delays too.
func randomCommInstance(rng *rand.Rand, n int) (*taskgraph.Graph, *platform.Platform, []int, []TaskDecision) {
	b := taskgraph.NewBuilder("rand-comm", 1e4)
	for i := 0; i < n; i++ {
		b.AddTask("t", 0, 1)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.25 {
				b.AddEdgeData(i, j, rng.Float64()*64)
			}
		}
	}
	g := b.MustBuild()
	p := platform.Default()
	dec := make([]TaskDecision, n)
	for i := range dec {
		dec[i] = TaskDecision{
			PE:      rng.Intn(p.NumPEs()),
			Metrics: metrics(10+rng.Float64()*500, 0.5+rng.Float64()*2, 1e4+rng.Float64()*1e6, rng.Float64()*0.3),
			MemKB:   rng.Float64() * 100,
		}
	}
	prio := rng.Perm(n)
	return g, p, prio, dec
}

func resultsEqualBits(a, b *Result) bool {
	bits := math.Float64bits
	if bits(a.MakespanUS) != bits(b.MakespanUS) || bits(a.FunctionalRel) != bits(b.FunctionalRel) ||
		bits(a.ErrProb) != bits(b.ErrProb) || bits(a.MTTFHours) != bits(b.MTTFHours) ||
		bits(a.PeakPowerW) != bits(b.PeakPowerW) || bits(a.EnergyUJ) != bits(b.EnergyUJ) {
		return false
	}
	for _, pair := range [][2][]float64{
		{a.StartUS, b.StartUS}, {a.EndUS, b.EndUS},
		{a.PEBusyUS, b.PEBusyUS}, {a.PEMemKB, b.PEMemKB},
	} {
		if len(pair[0]) != len(pair[1]) {
			return false
		}
		for i := range pair[0] {
			if bits(pair[0][i]) != bits(pair[1][i]) {
				return false
			}
		}
	}
	return true
}

// skippedEqualBits reports whether got, evaluated with skip, reads NaN in
// each skipped aggregate and equals the full result want bit for bit in
// every other field.
func skippedEqualBits(want, got *Result, skip Aggregates) bool {
	masked := *want
	if skip&AggMTTF != 0 {
		masked.MTTFHours = math.NaN()
	}
	if skip&AggEnergy != 0 {
		masked.EnergyUJ = math.NaN()
	}
	if skip&AggPeakPower != 0 {
		masked.PeakPowerW = math.NaN()
	}
	return resultsEqualBits(&masked, got)
}

// TestDeltaMatchesFullRandom is the delta path's exactness contract: for
// random instances, random comm models and random decision mutations, the
// delta run under the parent's captured pop sequence must be bit-identical
// to a from-scratch run — every Result field and every captured time. With
// each Evaluator.Skip set, both paths must match the full result in every
// field but the skipped aggregates, which read NaN.
func TestDeltaMatchesFullRandom(t *testing.T) {
	f := func(seed int64, nRaw, mutRaw uint8) bool {
		n := int(nRaw%15) + 1
		rng := rand.New(rand.NewSource(seed))
		g, p, prio, dec := randomCommInstance(rng, n)
		var comm CommModel
		if rng.Intn(2) == 1 {
			comm = CommModel{StartupUS: rng.Float64() * 10, PerKBUS: rng.Float64()}
		}

		parent := NewEvaluator()
		var prev SeqTimes
		if _, err := parent.RunWithCommCapture(g, p, prio, dec, comm, &prev); err != nil {
			return false
		}

		// Mutate a random subset of decisions (possibly none: the delta
		// run must then reduce to a pure prefix replay of everything).
		mutated := append([]TaskDecision(nil), dec...)
		changed := make([]bool, n)
		for k := 0; k < int(mutRaw%4); k++ {
			t := rng.Intn(n)
			mutated[t] = TaskDecision{
				PE:      rng.Intn(p.NumPEs()),
				Metrics: metrics(10+rng.Float64()*500, 0.5+rng.Float64()*2, 1e4+rng.Float64()*1e6, rng.Float64()*0.3),
				MemKB:   rng.Float64() * 100,
			}
			changed[t] = true
		}

		full := NewEvaluator()
		var fullCap SeqTimes
		want, err := full.RunWithCommCapture(g, p, prio, mutated, comm, &fullCap)
		if err != nil {
			return false
		}

		deltaEv := NewEvaluator()
		var deltaCap SeqTimes
		got, err := deltaEv.RunWithCommDelta(g, p, prio, mutated, comm, &prev, changed, &deltaCap)
		if err != nil {
			return false
		}
		if !resultsEqualBits(want, got) {
			return false
		}
		// Every skip set, on both paths: skipped aggregates read NaN, the
		// rest of the Result is the Skip == 0 one.
		for skip := Aggregates(1); skip <= AggMTTF|AggEnergy|AggPeakPower; skip++ {
			fullSkip, err := (&Evaluator{Skip: skip}).RunWithCommCapture(g, p, prio, mutated, comm, nil)
			if err != nil || !skippedEqualBits(want, fullSkip, skip) {
				return false
			}
			deltaSkip, err := (&Evaluator{Skip: skip}).RunWithCommDelta(g, p, prio, mutated, comm, &prev, changed, nil)
			if err != nil || !skippedEqualBits(want, deltaSkip, skip) {
				return false
			}
		}
		// Captured times must round-trip so the child can itself become a
		// delta parent.
		if len(deltaCap.Seq) != n || len(fullCap.Seq) != n {
			return false
		}
		for i := 0; i < n; i++ {
			if deltaCap.Seq[i] != fullCap.Seq[i] {
				return false
			}
			t := int(deltaCap.Seq[i])
			if deltaCap.StartUS[t] != fullCap.StartUS[t] || deltaCap.EndUS[t] != fullCap.EndUS[t] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaNoChangeIsPureReplay pins the k = n case: with no decision
// changed, the delta run replays the whole parent schedule and still lands
// on the identical result.
func TestDeltaNoChangeIsPureReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g, p, prio, dec := randomCommInstance(rng, 12)
	comm := CommModel{StartupUS: 3, PerKBUS: 0.25}

	var prev SeqTimes
	want, err := NewEvaluator().RunWithCommCapture(g, p, prio, dec, comm, &prev)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewEvaluator().RunWithCommDelta(g, p, prio, dec, comm, &prev, make([]bool, 12), &SeqTimes{})
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqualBits(want, got) {
		t.Fatal("pure replay diverged from the full run")
	}
}

// TestDeltaValidation pins the defensive checks on the previous-run inputs.
func TestDeltaValidation(t *testing.T) {
	g := diamond()
	p := platform.Default()
	dec := make([]TaskDecision, 4)
	for i := range dec {
		dec[i] = TaskDecision{PE: 0, Metrics: metrics(100, 1, 1e5, 0)}
	}
	prio := []int{0, 1, 2, 3}
	var prev SeqTimes
	if _, err := NewEvaluator().RunWithCommCapture(g, p, prio, dec, CommModel{}, &prev); err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator()
	if _, err := ev.RunWithCommDelta(g, p, prio, dec, CommModel{}, &prev, make([]bool, 3), &SeqTimes{}); err == nil {
		t.Fatal("short changed slice accepted")
	}
	short := SeqTimes{Seq: prev.Seq[:3], StartUS: prev.StartUS, EndUS: prev.EndUS}
	if _, err := ev.RunWithCommDelta(g, p, prio, dec, CommModel{}, &short, make([]bool, 4), &SeqTimes{}); err == nil {
		t.Fatal("truncated previous sequence accepted")
	}
}

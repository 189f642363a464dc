package schedule

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/platform"
	"repro/internal/relmodel"
	"repro/internal/taskgraph"
)

func metrics(exT, power, mttf, errProb float64) relmodel.Metrics {
	return relmodel.Metrics{
		AvgExTimeUS: exT,
		MinExTimeUS: exT,
		PowerW:      power,
		MTTFHours:   mttf,
		ErrProb:     errProb,
		EtaHours:    mttf,
		EnergyUJ:    exT * power,
	}
}

func diamond() *taskgraph.Graph {
	b := taskgraph.NewBuilder("diamond", 1e4)
	a := b.AddTask("a", 0, 1)
	l := b.AddTask("l", 0, 1)
	r := b.AddTask("r", 0, 1)
	j := b.AddTask("j", 0, 1)
	b.AddEdge(a, l)
	b.AddEdge(a, r)
	b.AddEdge(l, j)
	b.AddEdge(r, j)
	return b.MustBuild()
}

func TestDiamondTwoPEs(t *testing.T) {
	g := diamond()
	p := platform.Default()
	dec := []TaskDecision{
		{PE: 0, Metrics: metrics(100, 1, 1e5, 0.01)},
		{PE: 0, Metrics: metrics(200, 1, 1e5, 0.01)},
		{PE: 1, Metrics: metrics(150, 1, 1e5, 0.01)},
		{PE: 0, Metrics: metrics(100, 1, 1e5, 0.01)},
	}
	res, err := Run(g, p, []int{0, 1, 2, 3}, dec)
	if err != nil {
		t.Fatal(err)
	}
	// a: 0-100 on PE0; l: 100-300 on PE0; r: 100-250 on PE1 (parallel);
	// j: 300-400 on PE0.
	if res.StartUS[2] != 100 || res.EndUS[2] != 250 {
		t.Fatalf("r scheduled %v-%v, want 100-250", res.StartUS[2], res.EndUS[2])
	}
	if res.StartUS[3] != 300 {
		t.Fatalf("join started %v, want 300 (after both branches)", res.StartUS[3])
	}
	if res.MakespanUS != 400 {
		t.Fatalf("makespan %v, want 400", res.MakespanUS)
	}
}

func TestSerializationOnOnePE(t *testing.T) {
	g := diamond()
	p := platform.Default()
	dec := make([]TaskDecision, 4)
	for i := range dec {
		dec[i] = TaskDecision{PE: 2, Metrics: metrics(100, 1, 1e5, 0)}
	}
	res, err := Run(g, p, []int{0, 1, 2, 3}, dec)
	if err != nil {
		t.Fatal(err)
	}
	if res.MakespanUS != 400 {
		t.Fatalf("single-PE makespan %v, want 400 (fully serialized)", res.MakespanUS)
	}
}

func TestPriorityOrderMatters(t *testing.T) {
	// Two independent tasks contending for one PE: priority decides order.
	b := taskgraph.NewBuilder("ind", 1e4)
	b.AddTask("x", 0, 1)
	b.AddTask("y", 0, 1)
	g := b.MustBuild()
	p := platform.Default()
	dec := []TaskDecision{
		{PE: 0, Metrics: metrics(100, 1, 1e5, 0)},
		{PE: 0, Metrics: metrics(50, 1, 1e5, 0)},
	}
	res1, err := Run(g, p, []int{0, 1}, dec)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Run(g, p, []int{1, 0}, dec)
	if err != nil {
		t.Fatal(err)
	}
	if res1.StartUS[1] != 100 || res2.StartUS[1] != 0 {
		t.Fatalf("priority not honored: %v / %v", res1.StartUS, res2.StartUS)
	}
}

func TestNonTopologicalPriorityStillValid(t *testing.T) {
	// Priority lists a successor before its predecessor; the scheduler
	// must defer it rather than break precedence.
	g := diamond()
	p := platform.Default()
	dec := make([]TaskDecision, 4)
	for i := range dec {
		dec[i] = TaskDecision{PE: i % 2, Metrics: metrics(100, 1, 1e5, 0)}
	}
	res, err := Run(g, p, []int{3, 2, 1, 0}, dec)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range g.Edges() {
		if res.EndUS[e.From] > res.StartUS[e.To]+1e-9 {
			t.Fatalf("precedence violated on edge %v", e)
		}
	}
}

func TestFunctionalReliabilityEq3(t *testing.T) {
	b := taskgraph.NewBuilder("f", 1e4)
	b.AddTask("a", 0, 1) // zeta 0.25
	b.AddTask("b", 0, 3) // zeta 0.75
	g := b.MustBuild()
	p := platform.Default()
	dec := []TaskDecision{
		{PE: 0, Metrics: metrics(10, 1, 1e5, 0.1)},
		{PE: 1, Metrics: metrics(10, 1, 1e5, 0.2)},
	}
	res, err := Run(g, p, []int{0, 1}, dec)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.9*0.25 + 0.8*0.75
	if math.Abs(res.FunctionalRel-want) > 1e-12 {
		t.Fatalf("F_app = %v, want %v", res.FunctionalRel, want)
	}
	if math.Abs(res.ErrProb-(1-want)) > 1e-12 {
		t.Fatal("ErrProb must be 1 − F_app")
	}
}

func TestMTTFEq2(t *testing.T) {
	b := taskgraph.NewBuilder("m", 1e4) // period 10^4 µs
	b.AddTask("a", 0, 1)
	b.AddTask("b", 0, 1)
	g := b.MustBuild()
	p := platform.Default()
	dec := []TaskDecision{
		{PE: 0, Metrics: metrics(100, 1, 5e4, 0)},
		{PE: 0, Metrics: metrics(300, 1, 1e5, 0)},
	}
	res, err := Run(g, p, []int{0, 1}, dec)
	if err != nil {
		t.Fatal(err)
	}
	// damage per period on PE0 = 100/5e4 + 300/1e5 = 0.002+0.003 = 0.005
	// MTTF = 1e4/0.005 = 2e6 hours-equivalent.
	if math.Abs(res.MTTFHours-2e6) > 1e-6 {
		t.Fatalf("MTTF = %v, want 2e6", res.MTTFHours)
	}
}

func TestMTTFMinOverPEs(t *testing.T) {
	b := taskgraph.NewBuilder("m2", 1e4)
	b.AddTask("a", 0, 1)
	b.AddTask("b", 0, 1)
	g := b.MustBuild()
	p := platform.Default()
	dec := []TaskDecision{
		{PE: 0, Metrics: metrics(100, 1, 1e4, 0)}, // heavy damage
		{PE: 1, Metrics: metrics(100, 1, 1e6, 0)}, // light damage
	}
	res, err := Run(g, p, []int{0, 1}, dec)
	if err != nil {
		t.Fatal(err)
	}
	want := 1e4 / (100.0 / 1e4)
	if math.Abs(res.MTTFHours-want) > 1e-6 {
		t.Fatalf("MTTF = %v, want min-PE value %v", res.MTTFHours, want)
	}
}

func TestPeakPowerOverlap(t *testing.T) {
	g := diamond()
	p := platform.Default()
	dec := []TaskDecision{
		{PE: 0, Metrics: metrics(100, 2, 1e5, 0)},
		{PE: 0, Metrics: metrics(200, 3, 1e5, 0)},
		{PE: 1, Metrics: metrics(150, 4, 1e5, 0)},
		{PE: 0, Metrics: metrics(100, 1, 1e5, 0)},
	}
	res, err := Run(g, p, []int{0, 1, 2, 3}, dec)
	if err != nil {
		t.Fatal(err)
	}
	// l (3W) and r (4W) overlap during 100-250 → peak 7W.
	if math.Abs(res.PeakPowerW-7) > 1e-12 {
		t.Fatalf("peak power = %v, want 7", res.PeakPowerW)
	}
	wantE := 100*2.0 + 200*3 + 150*4 + 100*1
	if math.Abs(res.EnergyUJ-wantE) > 1e-9 {
		t.Fatalf("energy = %v, want %v", res.EnergyUJ, wantE)
	}
}

func TestBackToBackNoDoubleCount(t *testing.T) {
	// Sequential tasks on one PE: peak power is the max, not the sum.
	b := taskgraph.NewBuilder("seq", 1e4)
	b.AddTask("a", 0, 1)
	b.AddTask("b", 0, 1)
	b.AddEdge(0, 1)
	g := b.MustBuild()
	p := platform.Default()
	dec := []TaskDecision{
		{PE: 0, Metrics: metrics(100, 2, 1e5, 0)},
		{PE: 0, Metrics: metrics(100, 3, 1e5, 0)},
	}
	res, err := Run(g, p, []int{0, 1}, dec)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.PeakPowerW-3) > 1e-12 {
		t.Fatalf("peak power = %v, want 3 (no overlap)", res.PeakPowerW)
	}
}

func TestRunInputValidation(t *testing.T) {
	g := diamond()
	p := platform.Default()
	good := make([]TaskDecision, 4)
	for i := range good {
		good[i] = TaskDecision{PE: 0, Metrics: metrics(100, 1, 1e5, 0)}
	}
	if _, err := Run(g, p, []int{0, 1, 2}, good); err == nil {
		t.Error("short priority accepted")
	}
	if _, err := Run(g, p, []int{0, 1, 2, 2}, good); err == nil {
		t.Error("non-permutation priority accepted")
	}
	if _, err := Run(g, p, []int{0, 1, 2, 3}, good[:3]); err == nil {
		t.Error("short decisions accepted")
	}
	bad := append([]TaskDecision(nil), good...)
	bad[0].PE = 99
	if _, err := Run(g, p, []int{0, 1, 2, 3}, bad); err == nil {
		t.Error("unknown PE accepted")
	}
	bad2 := append([]TaskDecision(nil), good...)
	bad2[1].Metrics.AvgExTimeUS = 0
	if _, err := Run(g, p, []int{0, 1, 2, 3}, bad2); err == nil {
		t.Error("zero execution time accepted")
	}
}

// randomInstance builds a random DAG, random assignment and random valid
// priority permutation.
func randomInstance(rng *rand.Rand, n int) (*taskgraph.Graph, *platform.Platform, []int, []TaskDecision) {
	b := taskgraph.NewBuilder("rand", 1e4)
	for i := 0; i < n; i++ {
		b.AddTask("t", 0, 1)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.25 {
				b.AddEdge(i, j)
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
		}
	}
	prio := rng.Perm(n)
	return g, p, prio, dec
}

func TestPropertyScheduleSafety(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%15) + 1
		rng := rand.New(rand.NewSource(seed))
		g, p, prio, dec := randomInstance(rng, n)
		res, err := Run(g, p, prio, dec)
		if err != nil {
			return false
		}
		// Precedence safety.
		for _, e := range g.Edges() {
			if res.EndUS[e.From] > res.StartUS[e.To]+1e-9 {
				return false
			}
		}
		// Resource safety: no two tasks overlap on one PE.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if dec[i].PE != dec[j].PE {
					continue
				}
				if res.StartUS[i] < res.EndUS[j]-1e-9 && res.StartUS[j] < res.EndUS[i]-1e-9 {
					return false
				}
			}
		}
		// Makespan consistency.
		for i := 0; i < n; i++ {
			if res.EndUS[i] > res.MakespanUS+1e-9 {
				return false
			}
		}
		return res.FunctionalRel >= 0 && res.FunctionalRel <= 1 && res.MTTFHours > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyMakespanLowerBound(t *testing.T) {
	// Makespan is at least the max per-PE load and at least the longest task.
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%12) + 1
		rng := rand.New(rand.NewSource(seed))
		g, p, prio, dec := randomInstance(rng, n)
		res, err := Run(g, p, prio, dec)
		if err != nil {
			return false
		}
		for pe := 0; pe < p.NumPEs(); pe++ {
			if res.PEBusyUS[pe] > res.MakespanUS+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

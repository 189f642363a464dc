package moea

import (
	"math"
	"testing"

	"repro/internal/pareto"
)

func TestMOEADConvergesOnZDT(t *testing.T) {
	p := &zdtProblem{n: 12, levels: 33}
	params := DefaultParams(60, 60, 7)
	res, err := RunMOEAD(p, params, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) == 0 {
		t.Fatal("empty MOEA/D front")
	}
	objs := res.FrontObjectives()
	if got := len(pareto.Filter(objs)); got != len(objs) {
		t.Fatal("MOEA/D front contains dominated points")
	}
	// Near the analytic front f2 = 1 − sqrt(f1).
	for _, s := range res.Front {
		f1, f2 := s.Objectives[0], s.Objectives[1]
		if f2 > 1.8-math.Sqrt(f1) {
			t.Fatalf("front point (%v,%v) far from optimal", f1, f2)
		}
	}
}

func TestMOEADComparableToNSGA2(t *testing.T) {
	p := &zdtProblem{n: 12, levels: 33}
	params := DefaultParams(50, 40, 9)
	nsga, err := Run(p, params, nil)
	if err != nil {
		t.Fatal(err)
	}
	moead, err := RunMOEAD(p, params, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := pareto.ReferencePoint(0.1, nsga.FrontObjectives(), moead.FrontObjectives())
	hvN := pareto.Hypervolume(nsga.FrontObjectives(), ref)
	hvM := pareto.Hypervolume(moead.FrontObjectives(), ref)
	// Neither engine should collapse: each achieves at least 60% of the
	// other's hypervolume on this benchmark.
	if hvM < 0.6*hvN || hvN < 0.6*hvM {
		t.Fatalf("engines diverge: NSGA-II %v vs MOEA/D %v", hvN, hvM)
	}
}

func TestMOEADConstraints(t *testing.T) {
	p := &constrainedProblem{zdtProblem{n: 8, levels: 17}}
	res, err := RunMOEAD(p, DefaultParams(40, 40, 13), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) == 0 {
		t.Fatal("no feasible solutions")
	}
	for _, s := range res.Front {
		if s.Objectives[0] < 0.3-1e-12 {
			t.Fatalf("infeasible point f1=%v in archive", s.Objectives[0])
		}
	}
}

func TestMOEADSeeding(t *testing.T) {
	p := &zdtProblem{n: 10, levels: 21}
	seed := &Genome{Order: make([]int, 10), Genes: make([]Gene, 10)}
	for i := range seed.Order {
		seed.Order[i] = i
	}
	res, err := RunMOEAD(p, DefaultParams(30, 1, 17), []*Genome{seed})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range res.Front {
		if s.Objectives[0] == 0 && math.Abs(s.Objectives[1]-1) < 1e-9 {
			found = true
		}
	}
	if !found {
		t.Fatal("optimal seed lost from MOEA/D archive")
	}
}

func TestMOEADRejectsSingleObjective(t *testing.T) {
	p := &orderProblem{n: 5}
	if _, err := RunMOEAD(p, DefaultParams(10, 2, 1), nil); err == nil {
		t.Fatal("single-objective problem accepted")
	}
}

func TestWeightVectors(t *testing.T) {
	for _, m := range []int{2, 3, 4} {
		ws := weightVectors(20, m)
		if len(ws) != 20 {
			t.Fatalf("want 20 vectors, got %d", len(ws))
		}
		for _, w := range ws {
			sum := 0.0
			for _, v := range w {
				if v < 0 {
					t.Fatal("negative weight")
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("weights sum to %v", sum)
			}
		}
	}
	// Two-objective vectors span the extremes.
	ws := weightVectors(11, 2)
	if ws[0][0] != 0 || ws[10][0] != 1 {
		t.Fatal("2-objective weights do not span [0,1]")
	}
}

func TestNeighborhoods(t *testing.T) {
	ws := weightVectors(10, 2)
	nb := neighborhoods(ws, 3)
	for i, list := range nb {
		if len(list) != 3 {
			t.Fatalf("neighborhood %d has %d members", i, len(list))
		}
		if list[0] != i {
			t.Fatalf("nearest neighbor of %d is %d, want itself", i, list[0])
		}
	}
}

package service

import (
	"context"
	"testing"
)

func TestSpecNormalizeDefaults(t *testing.T) {
	var s JobSpec
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	if s.App != "sobel" || s.Method != "proposed" || s.Engine != "nsga2" || s.Catalog != "default" {
		t.Fatalf("unexpected defaults: %+v", s)
	}
	if s.Pop != 60 || s.Gens != 40 || s.Seed != 1 {
		t.Fatalf("unexpected GA defaults: %+v", s)
	}
	if len(s.Objectives) != 2 || s.Objectives[0] != "makespan" || s.Objectives[1] != "errprob" {
		t.Fatalf("unexpected objective defaults: %v", s.Objectives)
	}
	if s.TotalGenerations() != 80 {
		t.Fatalf("proposed TotalGenerations = %d, want 80", s.TotalGenerations())
	}
}

func TestSpecNormalizeRejects(t *testing.T) {
	bad := []JobSpec{
		{App: "bogus"},
		{Method: "bogus"},
		{Engine: "bogus"},
		{Catalog: "bogus"},
		{Objectives: []string{"makespan", "bogus"}},
		{Objectives: []string{"makespan"}},
		{Pop: 1},
		{Gens: -3},
		{App: "synthetic", Tasks: -1},
		{App: "synthetic", Tasks: MaxSyntheticTasks + 1},
	}
	for i, s := range bad {
		if err := s.Normalize(); err == nil {
			t.Errorf("case %d accepted: %+v", i, s)
		}
	}
	largest := JobSpec{App: "synthetic", Tasks: MaxSyntheticTasks}
	if err := largest.Normalize(); err != nil {
		t.Fatalf("largest synthetic application rejected: %v", err)
	}
	if _, err := Validate(&largest); err != nil {
		t.Fatalf("largest synthetic application fails validation: %v", err)
	}
}

func TestSpecHashCanonical(t *testing.T) {
	a := JobSpec{App: "SOBEL", Method: "Proposed", Pop: 16, Gens: 6, Seed: 3}
	b := JobSpec{App: "sobel", Method: "proposed", Pop: 16, Gens: 6, Seed: 3}
	for _, s := range []*JobSpec{&a, &b} {
		if err := s.Normalize(); err != nil {
			t.Fatal(err)
		}
	}
	if a.Hash() != b.Hash() {
		t.Fatalf("equivalent specs hash differently: %s vs %s", a.Hash(), b.Hash())
	}
	c := b
	c.Seed = 4
	if c.Hash() == b.Hash() {
		t.Fatal("different seeds must hash differently")
	}
	d := b
	d.Gens = 7
	if d.Hash() == b.Hash() {
		t.Fatal("different budgets must hash differently")
	}
}

func TestSpecTotalGenerations(t *testing.T) {
	cases := map[string]int{"proposed": 20, "agnostic": 40, "fcclr": 10, "pfclr": 10}
	for method, want := range cases {
		s := JobSpec{Method: method, Gens: 10, Pop: 8}
		if err := s.Normalize(); err != nil {
			t.Fatal(err)
		}
		if got := s.TotalGenerations(); got != want {
			t.Errorf("%s: TotalGenerations = %d, want %d", method, got, want)
		}
	}
}

func TestExecuteMatchesCoreAcrossMethods(t *testing.T) {
	for _, method := range []string{"fcclr", "pfclr", "agnostic"} {
		spec := JobSpec{App: "sobel", Method: method, Pop: 12, Gens: 4, Seed: 2}
		if err := spec.Normalize(); err != nil {
			t.Fatal(err)
		}
		front, err := Execute(context.Background(), &spec, nil)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if len(front.Points) == 0 {
			t.Fatalf("%s: empty front", method)
		}
		// The wire form preserves archive order (it is canonical per spec)
		// and carries bit-identical objectives and QoS metrics.
		wire := FrontToWire(front)
		if len(wire.Points) != len(front.Points) || wire.Evaluations != front.Evaluations {
			t.Fatalf("%s: wire has %d points, %d evaluations; front %d, %d", method,
				len(wire.Points), wire.Evaluations, len(front.Points), front.Evaluations)
		}
		for i, p := range front.Points {
			got := wire.Points[i]
			for k, v := range p.Objectives {
				if got.Objectives[k] != v {
					t.Fatalf("%s: point %d objective %d = %v on the wire, want %v",
						method, i, k, got.Objectives[k], v)
				}
			}
			q := p.QoS
			if got.MakespanUS != q.MakespanUS || got.FunctionalRel != q.FunctionalRel ||
				got.ErrProb != q.ErrProb || got.MTTFHours != q.MTTFHours ||
				got.EnergyUJ != q.EnergyUJ || got.PeakPowerW != q.PeakPowerW {
				t.Fatalf("%s: point %d wire %+v, want QoS %+v", method, i, got, q)
			}
		}
	}
}

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

// TestSpecNoDeltaInHash pins no_delta as part of the job identity: it
// selects a different computation, even though the front is identical.
func TestSpecNoDeltaInHash(t *testing.T) {
	base := JobSpec{App: "sobel", Pop: 16, Gens: 6, Seed: 3}
	if err := base.Normalize(); err != nil {
		t.Fatal(err)
	}
	nd := base
	nd.NoDelta = true
	if nd.Hash() == base.Hash() {
		t.Fatal("no_delta must change the job hash")
	}
}

// TestExecuteNoDeltaByteIdentical pins the spec-level exactness guarantee:
// a job with no_delta set returns the same front as the default
// delta-evaluated run, bit for bit.
func TestExecuteNoDeltaByteIdentical(t *testing.T) {
	run := func(noDelta bool) *FrontWire {
		spec := JobSpec{App: "sobel", Method: "proposed", Pop: 16, Gens: 6, Seed: 11, NoDelta: noDelta}
		if err := spec.Normalize(); err != nil {
			t.Fatal(err)
		}
		front, err := Execute(context.Background(), &spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		return FrontToWire(front)
	}
	on, off := run(false), run(true)
	if len(on.Points) != len(off.Points) {
		t.Fatalf("front sizes differ: %d vs %d", len(on.Points), len(off.Points))
	}
	for i := range on.Points {
		a, b := on.Points[i], off.Points[i]
		for j := range a.Objectives {
			if a.Objectives[j] != b.Objectives[j] {
				t.Fatalf("point %d objective %d differs: %v vs %v", i, j, a.Objectives[j], b.Objectives[j])
			}
		}
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
		// The wire form preserves archive order (it is canonical per spec),
		// and a wire round trip must reconstruct the exact front: same
		// order, bit-identical objectives and QoS metrics.
		wire := FrontToWire(front)
		if len(wire.Points) != len(front.Points) {
			t.Fatalf("%s: wire has %d points, front %d", method, len(wire.Points), len(front.Points))
		}
		back := FrontFromWire(wire)
		if back.Evaluations != front.Evaluations {
			t.Fatalf("%s: evaluations %d after round trip, want %d",
				method, back.Evaluations, front.Evaluations)
		}
		for i, p := range front.Points {
			got := back.Points[i]
			for k, v := range p.Objectives {
				if got.Objectives[k] != v {
					t.Fatalf("%s: point %d objective %d = %v after round trip, want %v",
						method, i, k, got.Objectives[k], v)
				}
			}
			gq, wq := got.QoS, p.QoS
			if gq.MakespanUS != wq.MakespanUS || gq.FunctionalRel != wq.FunctionalRel ||
				gq.ErrProb != wq.ErrProb || gq.MTTFHours != wq.MTTFHours ||
				gq.EnergyUJ != wq.EnergyUJ || gq.PeakPowerW != wq.PeakPowerW {
				t.Fatalf("%s: point %d QoS %+v after round trip, want %+v",
					method, i, gq, wq)
			}
		}
	}
}

func TestLRUCache(t *testing.T) {
	c := NewFrontCache(2)
	f1, f2, f3 := &FrontWire{Evaluations: 1}, &FrontWire{Evaluations: 2}, &FrontWire{Evaluations: 3}
	c.Add("a", f1)
	c.Add("b", f2)
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted prematurely")
	}
	// a is now most recent; adding c must evict b.
	c.Add("c", f3)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted as least recently used")
	}
	if got, ok := c.Get("a"); !ok || got != f1 {
		t.Fatal("a lost")
	}
	if got, ok := c.Get("c"); !ok || got != f3 {
		t.Fatal("c lost")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	// Re-adding an existing key refreshes in place without growing.
	c.Add("a", f2)
	if got, _ := c.Get("a"); got != f2 {
		t.Fatal("refresh did not replace the value")
	}
	if c.Len() != 2 {
		t.Fatalf("Len after refresh = %d, want 2", c.Len())
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h histogram
	h.observe(5)      // le_10ms
	h.observe(10)     // le_10ms (inclusive upper bound)
	h.observe(11)     // le_30ms
	h.observe(200000) // le_inf
	w := h.wire()
	if w.Count != 4 {
		t.Fatalf("count = %d, want 4", w.Count)
	}
	if w.Buckets["le_10ms"] != 2 {
		t.Fatalf("le_10ms = %d, want 2", w.Buckets["le_10ms"])
	}
	if w.Buckets["le_30ms"] != 3 {
		t.Fatalf("le_30ms cumulative = %d, want 3", w.Buckets["le_30ms"])
	}
	if w.Buckets["le_inf"] != 4 {
		t.Fatalf("le_inf = %d, want 4", w.Buckets["le_inf"])
	}
	if w.SumMS != 5+10+11+200000 {
		t.Fatalf("sum = %v", w.SumMS)
	}
}

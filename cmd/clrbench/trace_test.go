package main

import (
	"testing"
	"time"

	"repro/internal/core"
)

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "job", Start: 0, End: 100},
		// Children overlap each other ([10,60] covered once) and one runs
		// past its parent (clipped at 100): 50 + 20 = 70 covered.
		{ID: 2, Parent: 1, Name: "stage", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "stage", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "late", Start: 80, End: 120},
		// A grandchild reduces only its own parent's self time.
		{ID: 5, Parent: 2, Name: "generation", Start: 15, End: 25},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"job":        30,
		"stage":      (30 - 10) + 30,
		"late":       40,
		"generation": 10,
	}
	for name, d := range want {
		if got[name] != d {
			t.Errorf("self time of %s = %d, want %d", name, got[name], d)
		}
	}
}

func TestStageTrackerSpans(t *testing.T) {
	tr := newTracer()
	exec := tr.open("service.ExecuteOn", 0, 1, 0)
	st := newStageTracker(tr, 1, exec, 0)
	// A two-stage run: pfclr finishes its budget, then fcclr starts.
	for _, ev := range []core.ProgressEvent{
		{Stage: "pfclr", Generation: 0, Generations: 2},
		{Stage: "pfclr", Generation: 1, Generations: 2},
		{Stage: "pfclr", Generation: 2, Generations: 2},
		{Stage: "fcclr", Generation: 0, Generations: 1},
		{Stage: "fcclr", Generation: 1, Generations: 1},
	} {
		st.progress(ev)
	}
	stageS, genMS := st.finish()
	if len(genMS) != 5 {
		t.Fatalf("%d generation durations, want 5", len(genMS))
	}
	var pf, fc span
	for _, s := range tr.spans {
		switch s.Name {
		case "stage.pfclr":
			pf = s
		case "stage.fcclr":
			fc = s
		}
	}
	if pf.Parent != exec || fc.Parent != exec {
		t.Fatalf("stage spans not under the ExecuteOn span: %+v %+v", pf, fc)
	}
	if fc.Start != pf.End {
		t.Errorf("fcclr stage starts at %d, want the end of pfclr at %d", fc.Start, pf.End)
	}
	if len(stageS) != 2 || stageS["pfclr"] != float64(pf.End-pf.Start)/1e9 || stageS["fcclr"] != float64(fc.End-fc.Start)/1e9 {
		t.Errorf("stage times %v do not match spans %+v %+v", stageS, pf, fc)
	}
}

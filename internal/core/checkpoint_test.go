package core

import (
	"context"
	"encoding/json"
	"sync"
	"testing"

	"repro/internal/moea"
)

// memCheckpointer is an in-memory Checkpointer, concurrency-safe so the
// Agnostic strategy's parallel layers can save simultaneously.
type memCheckpointer struct {
	mu     sync.Mutex
	stages map[string]*moea.Checkpoint
	fronts map[string]*FrontSnapshot
	saves  int
}

func newMemCheckpointer() *memCheckpointer {
	return &memCheckpointer{
		stages: make(map[string]*moea.Checkpoint),
		fronts: make(map[string]*FrontSnapshot),
	}
}

func (m *memCheckpointer) SaveStage(stage string, cp *moea.Checkpoint) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stages[stage] = cp
	m.saves++
}

func (m *memCheckpointer) SaveFront(stage string, fs *FrontSnapshot) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.fronts[stage] = fs
	delete(m.stages, stage)
}

func (m *memCheckpointer) ResumeStage(stage string) *moea.Checkpoint {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stages[stage]
}

func (m *memCheckpointer) ResumeFront(stage string) *FrontSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.fronts[stage]
}

// frontBytes fingerprints a front bit-exactly: objectives, QoS and genomes.
func frontBytes(t *testing.T, f *Front) string {
	t.Helper()
	type pt struct {
		Obj   []float64 `json:"obj"`
		QoS   any       `json:"qos"`
		Order []int     `json:"order"`
		Genes any       `json:"genes"`
	}
	pts := make([]pt, len(f.Points))
	for i, p := range f.Points {
		pts[i] = pt{Obj: p.Objectives, QoS: p.QoS, Order: p.Genome.Order, Genes: p.Genome.Genes}
	}
	b, err := json.Marshal(pts)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestProposedResumesAcrossStages interrupts the two-stage Proposed
// strategy inside its second stage and checks the rerun skips the
// completed pfclr stage, resumes fcclr mid-evolution, and produces a
// byte-identical front.
func TestProposedResumesAcrossStages(t *testing.T) {
	inst := sobelInstance()
	flib := filteredLib(t, inst)
	cfg := RunConfig{Pop: 24, Gens: 10, Seed: 3}

	ref, err := Proposed(inst, cfg, flib)
	if err != nil {
		t.Fatal(err)
	}
	want := frontBytes(t, ref)

	ck := newMemCheckpointer()
	ctx, cancel := context.WithCancel(context.Background())
	icfg := cfg
	icfg.Ctx = ctx
	icfg.Checkpoint = ck
	icfg.CheckpointEvery = 2
	icfg.Progress = func(ev ProgressEvent) {
		if ev.Stage == "fcclr" && ev.Generation == 5 {
			cancel()
		}
	}
	if _, err := Proposed(inst, icfg, flib); err == nil {
		t.Fatal("interrupted run returned no error")
	}
	if ck.ResumeFront("pfclr") == nil {
		t.Fatal("completed pfclr stage has no saved front")
	}
	cp := ck.ResumeStage("fcclr")
	if cp == nil {
		t.Fatal("interrupted fcclr stage has no engine snapshot")
	}
	if cp.Generation != 5 {
		t.Fatalf("fcclr snapshot at generation %d, want 5", cp.Generation)
	}

	rcfg := cfg
	rcfg.Checkpoint = ck
	res, err := Proposed(inst, rcfg, flib)
	if err != nil {
		t.Fatal(err)
	}
	if got := frontBytes(t, res); got != want {
		t.Fatal("resumed Proposed front differs from uninterrupted run")
	}
	if res.Evaluations != ref.Evaluations {
		t.Fatalf("resumed run spent %d evaluations, want %d", res.Evaluations, ref.Evaluations)
	}
}

// TestAgnosticResumesParallelLayers interrupts the four parallel
// single-layer runs of the Agnostic strategy and checks the rerun restores
// finished layers and resumes unfinished ones to a byte-identical union.
func TestAgnosticResumesParallelLayers(t *testing.T) {
	inst := sobelInstance()
	cfg := RunConfig{Pop: 20, Gens: 8, Seed: 11}

	ref, refLayers, err := Agnostic(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := frontBytes(t, ref)

	ck := newMemCheckpointer()
	ctx, cancel := context.WithCancel(context.Background())
	icfg := cfg
	icfg.Ctx = ctx
	icfg.Checkpoint = ck
	icfg.CheckpointEvery = 2
	var once sync.Once
	icfg.Progress = func(ev ProgressEvent) {
		if ev.Generation >= 4 {
			once.Do(cancel)
		}
	}
	if _, _, err := Agnostic(inst, icfg); err == nil {
		t.Fatal("interrupted run returned no error")
	}

	rcfg := cfg
	rcfg.Checkpoint = ck
	res, layers, err := Agnostic(inst, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := frontBytes(t, res); got != want {
		t.Fatal("resumed Agnostic union front differs from uninterrupted run")
	}
	for layer, lf := range refLayers {
		if got := frontBytes(t, layers[layer]); got != frontBytes(t, lf) {
			t.Fatalf("layer %v front differs after resume", layer)
		}
	}
}

// TestCheckpointerIdleOnCompletedRun reruns an already fully completed
// checkpointed run: every stage restores from its saved front without a
// single engine snapshot being taken.
func TestCheckpointerIdleOnCompletedRun(t *testing.T) {
	inst := sobelInstance()
	flib := filteredLib(t, inst)
	cfg := RunConfig{Pop: 20, Gens: 6, Seed: 21}

	ck := newMemCheckpointer()
	ccfg := cfg
	ccfg.Checkpoint = ck
	first, err := Proposed(inst, ccfg, flib)
	if err != nil {
		t.Fatal(err)
	}
	savesAfterFirst := func() int {
		ck.mu.Lock()
		defer ck.mu.Unlock()
		return ck.saves
	}()

	second, err := Proposed(inst, ccfg, flib)
	if err != nil {
		t.Fatal(err)
	}
	if got := func() int {
		ck.mu.Lock()
		defer ck.mu.Unlock()
		return ck.saves
	}(); got != savesAfterFirst {
		t.Fatalf("completed rerun took %d new engine snapshots", got-savesAfterFirst)
	}
	if frontBytes(t, first) != frontBytes(t, second) {
		t.Fatal("restored-front rerun differs from original")
	}
}

// TestFrontSnapshotRoundTrip checks the durable front form (bit-pattern
// objectives + genomes) survives JSON and restores byte-identically,
// including recomputed QoS.
func TestFrontSnapshotRoundTrip(t *testing.T) {
	inst := sobelInstance()
	front, err := FcCLR(inst, smallCfg(17))
	if err != nil {
		t.Fatal(err)
	}
	fs := SnapshotFront(front)
	blob, err := json.Marshal(fs)
	if err != nil {
		t.Fatal(err)
	}
	back := new(FrontSnapshot)
	if err := json.Unmarshal(blob, back); err != nil {
		t.Fatal(err)
	}
	p := newFCProblem(inst, allFree)
	restored := restoreFront(back, p)
	if frontBytes(t, front) != frontBytes(t, restored) {
		t.Fatal("front snapshot round-trip is not byte-identical")
	}
}

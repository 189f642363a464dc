package service

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
)

// TestSpecIslandNormalization pins the island knobs' defaulting and
// degradation rules: islands 0 and 1 are the same single-population spec
// (and hash identically), migrants defaults to 2, and the knobs are part
// of the cache key.
func TestSpecIslandNormalization(t *testing.T) {
	s := JobSpec{Islands: 2, MigrationEvery: 3}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	if s.Migrants != 2 {
		t.Fatalf("migrants defaulted to %d, want 2", s.Migrants)
	}

	one := JobSpec{Islands: 1}
	zero := JobSpec{}
	for _, sp := range []*JobSpec{&one, &zero} {
		if err := sp.Normalize(); err != nil {
			t.Fatal(err)
		}
	}
	if one.Islands != 0 {
		t.Fatalf("islands=1 normalized to %d, want 0", one.Islands)
	}
	if one.Hash() != zero.Hash() {
		t.Fatal("single-island spec hashes differently from the plain spec")
	}
	if s.Hash() == zero.Hash() {
		t.Fatal("island spec hashes like the plain spec: knobs missing from the cache key")
	}
	other := JobSpec{Islands: 2, MigrationEvery: 4}
	if err := other.Normalize(); err != nil {
		t.Fatal(err)
	}
	if other.Hash() == s.Hash() {
		t.Fatal("different migration periods must hash differently")
	}
}

// TestSpecIslandRejects pins the validation table for the island knobs.
func TestSpecIslandRejects(t *testing.T) {
	bad := []JobSpec{
		{Islands: -1},
		{Islands: 2},                    // no migration period
		{MigrationEvery: 3},             // period without islands
		{Migrants: 2},                   // migrants without islands
		{Islands: 1, MigrationEvery: 3}, // degraded form must not carry knobs
		{Islands: 2, MigrationEvery: 3, Engine: "moead"}, // wrong engine
		{Islands: 40, MigrationEvery: 3},                 // default pop 60 < 2·40
		{Islands: 2, MigrationEvery: 3, Migrants: 30},    // ≥ pop/islands
		{Islands: 2, MigrationEvery: 3, Migrants: -1},    // negative migrants
		{Islands: 65, MigrationEvery: 3, Pop: 200},       // over the cap
		{Islands: 2, MigrationEvery: -2},                 // negative period
	}
	for i, s := range bad {
		if err := s.Normalize(); err == nil {
			t.Errorf("case %d accepted: %+v", i, s)
		}
	}
}

// TestExecuteIslandMatchesCore pins the service → core translation: an
// island spec executed through the service layer is byte-identical to the
// direct core island run with the same knobs.
func TestExecuteIslandMatchesCore(t *testing.T) {
	spec := JobSpec{App: "sobel", Method: "fcclr", Pop: 16, Gens: 8, Seed: 3,
		Islands: 2, MigrationEvery: 2}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	got, err := Execute(context.Background(), &spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	inst, _, err := Build(&spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.FcCLR(inst, core.RunConfig{
		Pop: 16, Gens: 8, Seed: 3, Islands: 2, MigrationEvery: 2, Migrants: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	gb, _ := json.Marshal(FrontToWire(got))
	wb, _ := json.Marshal(FrontToWire(want))
	if string(gb) != string(wb) {
		t.Fatal("service island run diverged from the direct core run")
	}
}

// TestIslandCrashResumeByteIdenticalFront extends the PR 5 durable-run
// acceptance test to island mode: an island job aborted mid-evolution
// leaves per-island checkpoints under the spec hash, is re-enqueued by the
// next incarnation, and resumes every island to a front byte-identical to
// an uninterrupted run.
func TestIslandCrashResumeByteIdenticalFront(t *testing.T) {
	// 300 generations run for about a second without the race detector:
	// enough that the abort after generation 4 lands mid-evolution (the
	// checkpoint assertions below fail otherwise), and short enough that
	// the resumed run meets its deadline under -race on two CPUs.
	spec := JobSpec{App: "sobel", Method: "fcclr", Pop: 16, Gens: 300, Seed: 42,
		Islands: 2, MigrationEvery: 3}
	want := referenceFront(t, spec)

	dir := t.TempDir()
	st := openTestStore(t, dir)
	s1 := New(Config{Workers: 1, Store: st, CheckpointEvery: 2})
	ts1 := httptest.NewServer(s1)

	jw, code := postJob(t, ts1, spec)
	if code != 202 {
		t.Fatalf("submit: %d %s", code, jw.Error)
	}
	waitFor(t, ts1, jw.ID, 30*time.Second, func(w *JobWire) bool {
		return w.Progress != nil && w.Progress.Generation >= 4
	})
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	_ = s1.Shutdown(expired)
	ts1.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// The abort must have left per-island engine snapshots.
	st2 := openTestStore(t, dir)
	blob, ok := st2.Checkpoint(jw.SpecHash)
	if !ok {
		t.Fatal("aborted island run left no checkpoint")
	}
	var rc runCheckpoint
	if err := json.Unmarshal(blob, &rc); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < spec.Islands; i++ {
		stage := core.IslandStage("fcclr", i)
		if rc.Stages[stage] == nil {
			t.Fatalf("checkpoint has no snapshot for stage %q (stages: %d)", stage, len(rc.Stages))
		}
	}

	s2 := New(Config{Workers: 1, Store: st2, CheckpointEvery: 2})
	ts2 := httptest.NewServer(s2)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		_ = s2.Shutdown(ctx)
		ts2.Close()
		st2.Close()
	})

	final := waitFor(t, ts2, jw.ID, 60*time.Second, terminal)
	if final.State != StateDone {
		t.Fatalf("resumed island job ended %s (%s)", final.State, final.Error)
	}
	if final.Cached {
		t.Fatal("resumed island job was served from cache, not resumed")
	}
	if got := marshalWireFront(t, final.Front); string(got) != string(want) {
		t.Fatal("resumed island front differs from uninterrupted run")
	}
	if _, ok := st2.Checkpoint(jw.SpecHash); ok {
		t.Fatal("finished island run left its checkpoint behind")
	}
}

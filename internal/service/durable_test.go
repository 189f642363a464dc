package service

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/store"
)

// TestDurableExecuteResumes checks the run checkpointer over a store: a
// run cancelled mid-evolution leaves a checkpoint under its spec hash, and
// the next DurableExecute of the spec resumes from it, past generation 1,
// to the front of an uninterrupted run, byte for byte.
func TestDurableExecuteResumes(t *testing.T) {
	spec := JobSpec{App: "sobel", Method: "proposed", Pop: 16, Gens: 40, Seed: 42}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	ref, err := Execute(context.Background(), &spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir(), store.Options{Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	run := DurableExecute(st, 2)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if _, err := run(ctx, &spec, func(e core.ProgressEvent) {
		if e.Stage == "pfclr" && e.Generation == 10 {
			cancel()
		}
	}); err == nil {
		t.Fatal("the cancelled run finished")
	}
	if _, ok := st.Checkpoint(spec.Hash()); !ok {
		t.Fatal("the cancelled run left no checkpoint")
	}

	first := 0
	front, err := run(context.Background(), &spec, func(e core.ProgressEvent) {
		if first == 0 {
			first = e.Generation
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if first <= 1 {
		t.Fatalf("the second run started at generation %d, want a resume past 1", first)
	}
	got, _ := json.Marshal(FrontToWire(front))
	want, _ := json.Marshal(FrontToWire(ref))
	if !bytes.Equal(got, want) {
		t.Fatal("the resumed front differs from an uninterrupted run")
	}
}

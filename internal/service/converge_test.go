package service

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/moea"
)

// TestSpecConvergeNormalization pins the converge knobs' defaulting rules:
// window and epsilon default from the moea package, and the knobs are part
// of the cache key while their absence leaves legacy hashes untouched.
func TestSpecConvergeNormalization(t *testing.T) {
	s := JobSpec{Converge: true}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	if s.ConvergeWindow != moea.DefaultPlateauWindow {
		t.Fatalf("converge_window defaulted to %d, want %d", s.ConvergeWindow, moea.DefaultPlateauWindow)
	}
	if s.ConvergeEps != moea.DefaultPlateauEps {
		t.Fatalf("converge_eps defaulted to %v, want %v", s.ConvergeEps, moea.DefaultPlateauEps)
	}

	plain := JobSpec{}
	if err := plain.Normalize(); err != nil {
		t.Fatal(err)
	}
	if s.Hash() == plain.Hash() {
		t.Fatal("converge spec hashes like the plain spec: knob missing from the cache key")
	}
	other := JobSpec{Converge: true, ConvergeWindow: 3}
	if err := other.Normalize(); err != nil {
		t.Fatal(err)
	}
	if other.Hash() == s.Hash() {
		t.Fatal("different converge windows must hash differently")
	}
}

// TestSpecConvergeRejects pins the validation table for the converge knobs.
func TestSpecConvergeRejects(t *testing.T) {
	bad := []JobSpec{
		{ConvergeWindow: 4},                  // window without converge
		{ConvergeEps: 0.01},                  // epsilon without converge
		{Converge: true, ConvergeWindow: -1}, // negative window
		{Converge: true, ConvergeEps: -0.5},  // negative epsilon
		{Converge: true, ConvergeEps: math.NaN()},
		{Converge: true, ConvergeEps: math.Inf(1)},
		{Converge: true, Islands: 2, MigrationEvery: 3}, // islands exclusion
	}
	for i, s := range bad {
		if err := s.Normalize(); err == nil {
			t.Errorf("case %d accepted: %+v", i, s)
		}
	}
}

// TestExecuteConverge runs a small converge-enabled spec end to end: the
// job must complete (possibly early) and produce a non-empty front.
func TestExecuteConverge(t *testing.T) {
	spec := JobSpec{App: "sobel", Method: "fcclr", Pop: 16, Gens: 30, Seed: 3, Converge: true}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	front, err := Execute(context.Background(), &spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(front.Points) == 0 {
		t.Fatal("converge run returned an empty front")
	}
}

// TestExecuteConvergeRejectsIslands double-checks the core-level guard
// behind Normalize: a hand-built config that bypasses Normalize still
// cannot combine islands and plateau termination.
func TestExecuteConvergeRejectsIslands(t *testing.T) {
	spec := JobSpec{App: "sobel", Method: "fcclr", Pop: 16, Gens: 8, Seed: 3,
		Islands: 2, MigrationEvery: 2}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	spec.Converge = true // bypass Normalize's exclusion
	if _, err := Execute(context.Background(), &spec, nil); err == nil || !strings.Contains(err.Error(), "plateau") {
		t.Fatalf("island+converge spec not rejected by core: %v", err)
	}
}

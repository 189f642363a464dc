package relmodel

import (
	"testing"

	"repro/internal/markov"
)

// BenchmarkChainSolveBatched measures the production path: both Fig. 3
// chains of one checkpoint-free configuration answered through
// markov.AnalyzePair's shared factorization.
func BenchmarkChainSolveBatched(b *testing.B) {
	p := baseParams()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := AnalyzeChains(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChainSolveUnbatched measures the same two chains solved
// independently — the pre-batching baseline the paired path replaces.
func BenchmarkChainSolveUnbatched(b *testing.B) {
	p := baseParams()
	execStates := make([]int, p.Checkpoints+1)
	tc, fc := markov.New(), markov.New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tc.Reset()
		if err := buildTimingChainInto(tc, execStates, p); err != nil {
			b.Fatal(err)
		}
		fc.Reset()
		if err := buildFunctionalChainInto(fc, execStates, p); err != nil {
			b.Fatal(err)
		}
		if _, err := tc.Analyze(); err != nil {
			b.Fatal(err)
		}
		if _, err := fc.Analyze(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChainSolveBatchedCheckpointed covers the solo fallback inside
// the paired path: with checkpoints the two systems differ, so AnalyzePair
// must detect the mismatch and solve both without sharing.
func BenchmarkChainSolveBatchedCheckpointed(b *testing.B) {
	p := baseParams()
	p.Checkpoints = 3
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := AnalyzeChains(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChainSolvePermanent covers the chains of the fault-model corpus:
// the permanent-fault process and checkpoint errors on, with six
// checkpoints, about fifty transient states per chain.
func BenchmarkChainSolvePermanent(b *testing.B) {
	p := baseParams()
	p.Checkpoints = 6
	p.ModelCheckpointErrors = true
	p.PermPerUS, p.RepairProb, p.RepairTimeUS = 1e-6, 0.9, 50
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := AnalyzeChains(p); err != nil {
			b.Fatal(err)
		}
	}
}

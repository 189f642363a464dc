package core

import "testing"

// BenchmarkDeltaEvalOn measures a full fcCLR run with incremental delta
// evaluation (the default production path).
func BenchmarkDeltaEvalOn(b *testing.B) {
	inst := synInstance(20, 7)
	cfg := RunConfig{Pop: 32, Gens: 12, Seed: 7, Workers: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := FcCLR(inst, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeltaEvalOff is the same run with every offspring evaluated
// from scratch — the pre-delta baseline.
func BenchmarkDeltaEvalOff(b *testing.B) {
	inst := synInstance(20, 7)
	cfg := RunConfig{Pop: 32, Gens: 12, Seed: 7, Workers: 1, DisableDelta: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := FcCLR(inst, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

package moea

import (
	"math/rand"
	"testing"
)

// benchProblem is a minimal synthetic problem whose Evaluate cost is tiny,
// so the evaluate benchmarks measure dispatch overhead (goroutines,
// channels, allocations), not fitness computation.
type benchProblem struct {
	n int
}

func (p *benchProblem) NumTasks() int      { return p.n }
func (p *benchProblem) NumObjectives() int { return 2 }

func (p *benchProblem) RandomGene(rng *rand.Rand, task int) Gene {
	return Gene{PE: int32(rng.Intn(4)), Impl: int32(rng.Intn(3))}
}

func (p *benchProblem) MutateGene(rng *rand.Rand, task int, g Gene) Gene {
	g.PE = int32(rng.Intn(4))
	return g
}

func (p *benchProblem) Evaluate(g *Genome) Evaluation {
	a, b := 0.0, 0.0
	for t, gene := range g.Genes {
		a += float64(int(gene.PE) * (t + 1))
		b += float64(int(gene.Impl) * (t + 2))
	}
	return Evaluation{Objectives: []float64{a, b}}
}

func benchPopulation(p Problem, size int) []*solution {
	rng := rand.New(rand.NewSource(7))
	pop := make([]*solution, size)
	for i := range pop {
		pop[i] = &solution{genome: RandomGenome(rng, p)}
	}
	return pop
}

func benchmarkEvaluate(b *testing.B, workers int) {
	p := &benchProblem{n: 50}
	pop := benchPopulation(p, 96)
	r := &runState{p: p, params: Params{Workers: workers}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.evaluate(pop)
	}
}

func BenchmarkEvaluateSequential(b *testing.B) { benchmarkEvaluate(b, 1) }
func BenchmarkEvaluateWorkers4(b *testing.B)   { benchmarkEvaluate(b, 4) }

// BenchmarkEvaluateBudgeted exercises the CPU-token path (workers ≤ 0).
func BenchmarkEvaluateBudgeted(b *testing.B) { benchmarkEvaluate(b, 0) }

func BenchmarkGARun(b *testing.B) {
	p := &benchProblem{n: 30}
	params := DefaultParams(24, 10, 11)
	params.Workers = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(p, params, nil); err != nil {
			b.Fatal(err)
		}
	}
}

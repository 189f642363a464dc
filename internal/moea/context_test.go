package moea

import (
	"context"
	"errors"
	"math/rand"
	"testing"
)

// ctxProblem is a trivial two-objective problem for lifecycle tests.
type ctxProblem struct{}

func (ctxProblem) NumTasks() int      { return 6 }
func (ctxProblem) NumObjectives() int { return 2 }
func (ctxProblem) RandomGene(rng *rand.Rand, task int) Gene {
	return Gene{Impl: int32(rng.Intn(4)), PE: int32(rng.Intn(3))}
}
func (ctxProblem) MutateGene(rng *rand.Rand, task int, g Gene) Gene {
	g.Impl = int32(rng.Intn(4))
	return g
}
func (ctxProblem) Evaluate(g *Genome) Evaluation {
	a, b := 0.0, 0.0
	for t, gene := range g.Genes {
		a += float64(int(gene.Impl) * (t + 1))
		b += float64(int(gene.PE) * (7 - t))
	}
	return Evaluation{Objectives: []float64{a, b}}
}

func TestRunOnGenerationReportsEveryGeneration(t *testing.T) {
	forEngines(t, func(t *testing.T, run engineFn) {
		params := DefaultParams(8, 5, 42)
		params.Workers = 1
		var gens []int
		lastEvals := -1
		params.OnGeneration = func(g GenerationInfo) {
			gens = append(gens, g.Generation)
			if g.Generations != 5 {
				t.Fatalf("Generations = %d, want 5", g.Generations)
			}
			if g.Evaluations <= lastEvals {
				t.Fatalf("evaluations not monotone: %d after %d", g.Evaluations, lastEvals)
			}
			lastEvals = g.Evaluations
		}
		if _, err := run(ctxProblem{}, params, nil); err != nil {
			t.Fatal(err)
		}
		want := []int{0, 1, 2, 3, 4, 5}
		if len(gens) != len(want) {
			t.Fatalf("got generations %v, want %v", gens, want)
		}
		for i := range want {
			if gens[i] != want[i] {
				t.Fatalf("got generations %v, want %v", gens, want)
			}
		}
	})
}

func TestRunCancelStopsWithinOneGeneration(t *testing.T) {
	forEngines(t, func(t *testing.T, run engineFn) {
		ctx, cancel := context.WithCancel(context.Background())
		params := DefaultParams(8, 10000, 42)
		params.Workers = 1
		params.Ctx = ctx
		last := -1
		cancelAt := 3
		params.OnGeneration = func(g GenerationInfo) {
			last = g.Generation
			if g.Generation == cancelAt {
				cancel()
			}
		}
		res, err := run(ctxProblem{}, params, nil)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if res != nil {
			t.Fatalf("cancelled run returned a result: %+v", res)
		}
		if last != cancelAt {
			t.Fatalf("run continued to generation %d after cancellation at %d", last, cancelAt)
		}
	})
}

func TestRunAlreadyCancelledDoesNoWork(t *testing.T) {
	forEngines(t, func(t *testing.T, run engineFn) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		params := DefaultParams(8, 5, 42)
		params.Ctx = ctx
		params.OnGeneration = func(GenerationInfo) {
			t.Fatal("progress emitted for a cancelled run")
		}
		if _, err := run(ctxProblem{}, params, nil); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	})
}

func TestRunContextDoesNotPerturbResults(t *testing.T) {
	forEngines(t, func(t *testing.T, run engineFn) {
		params := DefaultParams(12, 8, 7)
		params.Workers = 1
		plain, err := run(ctxProblem{}, params, nil)
		if err != nil {
			t.Fatal(err)
		}
		params.Ctx = context.Background()
		params.OnGeneration = func(GenerationInfo) {}
		hooked, err := run(ctxProblem{}, params, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(plain.Front) != len(hooked.Front) || plain.Evaluations != hooked.Evaluations {
			t.Fatalf("context/progress hooks changed the run: %d/%d front, %d/%d evals",
				len(plain.Front), len(hooked.Front), plain.Evaluations, hooked.Evaluations)
		}
		for i := range plain.Front {
			for j := range plain.Front[i].Objectives {
				if plain.Front[i].Objectives[j] != hooked.Front[i].Objectives[j] {
					t.Fatalf("front[%d] objective %d diverged", i, j)
				}
			}
		}
	})
}

package moea

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"testing"
)

// frontFingerprint serializes a result's front bit-exactly, so equality
// means byte-identical genomes and objective values.
func frontFingerprint(t *testing.T, res *Result) string {
	t.Helper()
	b, err := json.Marshal(res.Front)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func checkpointParams(gens int) Params {
	p := DefaultParams(24, gens, 7)
	p.Workers = 1
	return p
}

type engineFn func(p Problem, params Params, seeds []*Genome) (*Result, error)

// testEngines is the one table of engines that engine-generic tests run
// over.
var testEngines = []struct {
	name string
	run  engineFn
}{{"nsga2", Run}, {"moead", RunMOEAD}}

// forEngines runs fn as one subtest per engine, named after the engine.
func forEngines(t *testing.T, fn func(t *testing.T, run engineFn)) {
	t.Helper()
	for _, e := range testEngines {
		t.Run(e.name, func(t *testing.T) { fn(t, e.run) })
	}
}

// TestCountingSourceStreamUnchanged pins the core determinism invariant:
// wrapping the stdlib source in the draw counter must not change the
// random stream, or every pre-checkpoint golden result would shift.
func TestCountingSourceStreamUnchanged(t *testing.T) {
	plain := rand.New(rand.NewSource(99))
	counted := rand.New(newCountingSource(99))
	for i := 0; i < 1000; i++ {
		if a, b := plain.Int63(), counted.Int63(); a != b {
			t.Fatalf("draw %d: plain %d counted %d", i, a, b)
		}
	}
	// Mixed-kind draws must stay aligned too (rand.Rand uses Uint64 for
	// some derived values when the source implements Source64).
	plain2 := rand.New(rand.NewSource(5))
	counted2 := rand.New(newCountingSource(5))
	for i := 0; i < 1000; i++ {
		switch i % 4 {
		case 0:
			if plain2.Intn(17) != counted2.Intn(17) {
				t.Fatalf("Intn diverged at %d", i)
			}
		case 1:
			if plain2.Float64() != counted2.Float64() {
				t.Fatalf("Float64 diverged at %d", i)
			}
		case 2:
			if plain2.Uint64() != counted2.Uint64() {
				t.Fatalf("Uint64 diverged at %d", i)
			}
		case 3:
			if !reflect.DeepEqual(plain2.Perm(9), counted2.Perm(9)) {
				t.Fatalf("Perm diverged at %d", i)
			}
		}
	}
}

func TestCountingSourceFastForward(t *testing.T) {
	src := newCountingSource(42)
	rng := rand.New(src)
	var draws []int64
	for i := 0; i < 257; i++ {
		draws = append(draws, rng.Int63())
	}
	n := src.Draws()

	replay := newCountingSource(42)
	replay.FastForward(n)
	if replay.Draws() != n {
		t.Fatalf("Draws after FastForward = %d, want %d", replay.Draws(), n)
	}
	cont, contReplay := rand.New(src), rand.New(replay)
	for i := 0; i < 100; i++ {
		if a, b := cont.Int63(), contReplay.Int63(); a != b {
			t.Fatalf("post-fast-forward draw %d diverged: %d vs %d", i, a, b)
		}
	}
	_ = draws
}

// TestResumeByteIdenticalFront is the headline guarantee: for both engines,
// resuming from any periodic checkpoint reproduces the uninterrupted run's
// front byte for byte.
func TestResumeByteIdenticalFront(t *testing.T) {
	problem := &zdtProblem{n: 8, levels: 16}
	forEngines(t, func(t *testing.T, engine engineFn) {
		ref, err := engine(problem, checkpointParams(20), nil)
		if err != nil {
			t.Fatal(err)
		}
		want := frontFingerprint(t, ref)

		var cps []*Checkpoint
		params := checkpointParams(20)
		params.CheckpointEvery = 4
		params.OnCheckpoint = func(cp *Checkpoint) { cps = append(cps, cp) }
		if res, err := engine(problem, params, nil); err != nil {
			t.Fatal(err)
		} else if got := frontFingerprint(t, res); got != want {
			t.Fatal("enabling checkpointing changed the front")
		}
		// Generations 4, 8, 12, 16 (20 is the final generation; no
		// snapshot is due once the run is complete).
		if len(cps) != 4 {
			t.Fatalf("captured %d checkpoints, want 4", len(cps))
		}

		for _, cp := range cps {
			// Round-trip through JSON: the service stores checkpoints
			// serialized, so resume must survive encoding.
			blob, err := json.Marshal(cp)
			if err != nil {
				t.Fatal(err)
			}
			restored := new(Checkpoint)
			if err := json.Unmarshal(blob, restored); err != nil {
				t.Fatal(err)
			}
			rp := checkpointParams(20)
			rp.Resume = restored
			res, err := engine(problem, rp, nil)
			if err != nil {
				t.Fatalf("resume from gen %d: %v", cp.Generation, err)
			}
			if got := frontFingerprint(t, res); got != want {
				t.Fatalf("resume from gen %d: front differs from uninterrupted run", cp.Generation)
			}
			if res.Evaluations != ref.Evaluations {
				t.Fatalf("resume from gen %d: %d evaluations, want %d",
					cp.Generation, res.Evaluations, ref.Evaluations)
			}
		}
	})
}

// TestCancelCheckpointResumes kills a run mid-flight via context
// cancellation and checks the final cancellation snapshot resumes to the
// byte-identical front.
func TestCancelCheckpointResumes(t *testing.T) {
	problem := &zdtProblem{n: 8, levels: 16}
	forEngines(t, func(t *testing.T, engine engineFn) {
		ref, err := engine(problem, checkpointParams(15), nil)
		if err != nil {
			t.Fatal(err)
		}
		want := frontFingerprint(t, ref)

		ctx, cancel := context.WithCancel(context.Background())
		var last *Checkpoint
		params := checkpointParams(15)
		params.Ctx = ctx
		params.OnCheckpoint = func(cp *Checkpoint) { last = cp }
		params.OnGeneration = func(gi GenerationInfo) {
			if gi.Generation == 7 {
				cancel()
			}
		}
		if _, err := engine(problem, params, nil); err == nil {
			t.Fatal("cancelled run returned no error")
		}
		if last == nil {
			t.Fatal("cancellation produced no checkpoint")
		}
		if last.Generation != 7 {
			t.Fatalf("cancel checkpoint at generation %d, want 7", last.Generation)
		}

		rp := checkpointParams(15)
		rp.Resume = last
		res, err := engine(problem, rp, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := frontFingerprint(t, res); got != want {
			t.Fatal("resume after cancellation: front differs from uninterrupted run")
		}
	})
}

// TestDoubleInterruptResumes chains two interruptions — resume from an
// early checkpoint, cancel again, resume again — and still lands on the
// reference front.
func TestDoubleInterruptResumes(t *testing.T) {
	problem := &zdtProblem{n: 8, levels: 16}
	ref, err := Run(problem, checkpointParams(20), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := frontFingerprint(t, ref)

	var first *Checkpoint
	p1 := checkpointParams(20)
	p1.CheckpointEvery = 5
	p1.OnCheckpoint = func(cp *Checkpoint) {
		if first == nil {
			first = cp
		}
	}
	if _, err := Run(problem, p1, nil); err != nil {
		t.Fatal(err)
	}
	if first == nil || first.Generation != 5 {
		t.Fatalf("first checkpoint = %+v", first)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var second *Checkpoint
	p2 := checkpointParams(20)
	p2.Ctx = ctx
	p2.Resume = first
	p2.OnCheckpoint = func(cp *Checkpoint) { second = cp }
	p2.OnGeneration = func(gi GenerationInfo) {
		if gi.Generation == 12 {
			cancel()
		}
	}
	if _, err := Run(problem, p2, nil); err == nil {
		t.Fatal("second leg was not cancelled")
	}
	if second == nil || second.Generation != 12 {
		t.Fatalf("second checkpoint = %+v", second)
	}

	p3 := checkpointParams(20)
	p3.Resume = second
	res, err := Run(problem, p3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := frontFingerprint(t, res); got != want {
		t.Fatal("twice-interrupted run: front differs from uninterrupted run")
	}
}

func TestResumeValidation(t *testing.T) {
	problem := &zdtProblem{n: 8, levels: 16}
	var cp *Checkpoint
	params := checkpointParams(10)
	params.CheckpointEvery = 5
	params.OnCheckpoint = func(c *Checkpoint) { cp = c }
	if _, err := Run(problem, params, nil); err != nil {
		t.Fatal(err)
	}
	if cp == nil {
		t.Fatal("no checkpoint captured")
	}

	cases := map[string]func(*Checkpoint){
		"generation past budget": func(c *Checkpoint) { c.Generation = 11 },
		"negative generation":    func(c *Checkpoint) { c.Generation = -1 },
		"population size":        func(c *Checkpoint) { c.Population = c.Population[:3] },
		"objective count":        func(c *Checkpoint) { c.Population[0].Objectives = []uint64{1} },
		"genome length":          func(c *Checkpoint) { c.Population[0].Genes = c.Population[0].Genes[:2] },
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			blob, _ := json.Marshal(cp)
			bad := new(Checkpoint)
			if err := json.Unmarshal(blob, bad); err != nil {
				t.Fatal(err)
			}
			mutate(bad)
			rp := checkpointParams(10)
			rp.Resume = bad
			if _, err := Run(problem, rp, nil); err == nil {
				t.Fatal("corrupt checkpoint accepted")
			}
		})
	}
}

// TestResumeIntGeneCheckpoint restores a MOEA/D snapshot (generation 3 of
// a 6-generation run) written when Gene's fields were int: the narrower
// fields keep the JSON as it was, so the snapshot re-encodes to the same
// bytes and resumes to the uninterrupted run's front.
func TestResumeIntGeneCheckpoint(t *testing.T) {
	blob, err := os.ReadFile("testdata/checkpoint_int_genes.json")
	if err != nil {
		t.Fatal(err)
	}
	cp := new(Checkpoint)
	if err := json.Unmarshal(blob, cp); err != nil {
		t.Fatal(err)
	}
	if again, err := json.Marshal(cp); err != nil || !bytes.Equal(again, bytes.TrimSpace(blob)) {
		t.Fatalf("the snapshot does not re-encode to its bytes (err %v)", err)
	}
	problem := &zdtProblem{n: 8, levels: 16}
	params := DefaultParams(8, 6, 7)
	params.Workers = 1
	ref, err := RunMOEAD(problem, params, nil)
	if err != nil {
		t.Fatal(err)
	}
	params.Resume = cp
	res, err := RunMOEAD(problem, params, nil)
	if err != nil {
		t.Fatal(err)
	}
	if frontFingerprint(t, res) != frontFingerprint(t, ref) || res.Evaluations != ref.Evaluations {
		t.Fatal("the resumed front differs from the uninterrupted run's")
	}
}

// TestCheckpointGeneOutOfRange checks a gene value outside int32 is a
// decoding error, not a value that wraps, while the range's ends decode
// exactly.
func TestCheckpointGeneOutOfRange(t *testing.T) {
	decode := func(v string) (*Checkpoint, error) {
		cp := new(Checkpoint)
		return cp, json.Unmarshal([]byte(`{"population":[{"order":[0],"genes":[{"PE":`+v+`}]}]}`), cp)
	}
	for _, v := range []string{"2147483648", "-2147483649", "4294967296"} {
		if _, err := decode(v); err == nil {
			t.Errorf("gene value %s decoded without error", v)
		}
	}
	for _, v := range []int32{math.MaxInt32, math.MinInt32} {
		cp, err := decode(strconv.Itoa(int(v)))
		if err != nil || cp.Population[0].Genes[0].PE != v {
			t.Errorf("gene value %d: err %v", v, err)
		}
	}
}

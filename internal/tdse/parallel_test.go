package tdse

import (
	"os"
	"runtime"
	"testing"

	"repro/internal/faultmodel"
	"repro/internal/platform"
	"repro/internal/relmodel"
	"repro/internal/sweep"
)

// parallelProcs is the GOMAXPROCS of the parallel runs. TestMain sets it
// and creates the process token pool before any test runs, so the pool
// holds this many tokens even on a one-CPU machine and the parallel path
// really runs.
const parallelProcs = 4

func TestMain(m *testing.M) {
	runtime.GOMAXPROCS(parallelProcs)
	sweep.ReleaseWorkers(sweep.AcquireWorkers(parallelProcs))
	os.Exit(m.Run())
}

// enumerateAt runs Enumerate with GOMAXPROCS set to procs, which bounds the
// evaluation workers.
func enumerateAt(t *testing.T, procs, taskType int, p *platform.Platform, opt Options) ([]Candidate, error) {
	t.Helper()
	lib, _, cat := testSetup(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	return Enumerate(lib, taskType, p, cat, opt)
}

// TestEnumerateParallelMatchesSerial pins the parallel evaluation to the
// serial one: equal candidates in equal order, bit for bit, and process
// counters that count every candidate exactly once.
func TestEnumerateParallelMatchesSerial(t *testing.T) {
	p := platform.Default()
	faulty := DefaultOptions()
	faulty.Checkpoints = CheckpointAxis([]int{1, 3})
	faulty.Faults = &faultmodel.Model{
		Default: faultmodel.FaultModel{TransientScale: 10, PermanentPerHour: 50, RepairProb: 0.5, RepairTimeUS: 100},
	}
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"legacy", DefaultOptions()},
		{"faults and checkpoints", faulty},
	} {
		t.Run(tc.name, func(t *testing.T) {
			serial, err := enumerateAt(t, 1, 1, p, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			pairs0, fm0 := relmodel.PairSolveTotals(), faultmodel.Totals()
			par, err := enumerateAt(t, parallelProcs, 1, p, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			pairs1, fm1 := relmodel.PairSolveTotals(), faultmodel.Totals()
			if len(par) != len(serial) || cap(par) != len(par) {
				t.Fatalf("parallel run listed %d candidates (cap %d), serial %d", len(par), cap(par), len(serial))
			}
			for i := range serial {
				if par[i] != serial[i] {
					t.Fatalf("candidate %d differs:\nparallel %+v\nserial   %+v", i, par[i], serial[i])
				}
			}
			solves := pairs1.Paired + pairs1.Solo - pairs0.Paired - pairs0.Solo
			if solves != uint64(len(par)) {
				t.Fatalf("%d chain-pair solves for %d candidates", solves, len(par))
			}
			wantFM := uint64(0)
			if tc.opt.Faults != nil {
				wantFM = uint64(len(par))
			}
			if evals := fm1.Evals - fm0.Evals; evals != wantFM {
				t.Fatalf("%d fault-model evaluations for %d candidates, want %d", evals, len(par), wantFM)
			}
		})
	}
}

// TestEnumerateParallelLowestIndexError requires the parallel evaluation to
// report the error a serial one reports: the lowest failing candidate's.
func TestEnumerateParallelLowestIndexError(t *testing.T) {
	p := platform.Default()
	// One configuration per implementation and 128 policies: candidate 60
	// fails late in the first evaluation chunk and candidate 64 at once in
	// the second, with a different message, so on two or more CPUs both
	// chunks fail and only the lowest-index rule picks candidate 60.
	badPolicy := DefaultOptions()
	badPolicy.Modes, badPolicy.HW, badPolicy.SSW, badPolicy.ASW = []int{0}, []int{0}, []int{0}, []int{0}
	badPolicy.Checkpoints = make([]faultmodel.CheckpointPolicy, 128)
	badPolicy.Checkpoints[60] = faultmodel.CheckpointPolicy{Mode: 7, Interval: 1}
	badPolicy.Checkpoints[64] = faultmodel.CheckpointPolicy{Mode: 9, Interval: 1}
	// Only candidates on the second PE type fail, from the middle of the
	// list on.
	badType := DefaultOptions()
	badType.Faults = &faultmodel.Model{PerType: map[string]faultmodel.FaultModel{
		p.Types()[1].Name: {TransientScale: -1},
	}}
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"invalid policies", badPolicy},
		{"invalid fault model on one PE type", badType},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, serialErr := enumerateAt(t, 1, 0, p, tc.opt)
			if serialErr == nil {
				t.Fatal("serial enumeration accepted invalid options")
			}
			for run := 0; run < 5; run++ {
				_, err := enumerateAt(t, parallelProcs, 0, p, tc.opt)
				if err == nil || err.Error() != serialErr.Error() {
					t.Fatalf("parallel error %v, serial %v", err, serialErr)
				}
			}
		})
	}
}

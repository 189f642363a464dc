package markov_test

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/markov"
	"repro/internal/relmodel"
	"repro/internal/service"
	"repro/internal/tdse"
)

// oracleCounts tallies what an oracle run covered.
type oracleCounts struct {
	pairs, shared int
}

// requireNoFallbacks fails the test if any chain system analyzed since
// before left the plan replay for the dense kernel: the oracle inputs are
// ordinary chains, and sending them to the dense kernel would keep their
// bits while silently losing the replay's speed.
func requireNoFallbacks(t *testing.T, before relmodel.PairSolveStats) {
	t.Helper()
	after := relmodel.PairSolveTotals()
	if n := after.DenseFallbacks - before.DenseFallbacks; n != 0 {
		t.Fatalf("%d chain systems fell back to the dense kernel, want 0", n)
	}
	t.Logf("%d plans compiled", after.PlanCompiles-before.PlanCompiles)
}

// checkParams analyzes the Fig. 3 chains of p through the production path
// (markov.AnalyzePair and relmodel.AnalyzeChains) and the dense oracle, and
// requires the same error, the same shared-system verdict and bit-identical
// results.
func checkParams(t *testing.T, p relmodel.ChainParams, label string, n *oracleCounts) {
	t.Helper()
	tc, err := relmodel.BuildTimingChain(p)
	if err != nil {
		t.Fatalf("%s: timing chain: %v", label, err)
	}
	fc, err := relmodel.BuildFunctionalChain(p)
	if err != nil {
		t.Fatalf("%s: functional chain: %v", label, err)
	}
	wantT, wantF, wantShared, wantErr := markov.AnalyzePairDense(tc, fc)
	gotT, gotF, gotShared, gotErr := markov.AnalyzePair(tc, fc)
	if (wantErr == nil) != (gotErr == nil) || wantErr != nil && wantErr.Error() != gotErr.Error() {
		t.Fatalf("%s: AnalyzePair error %v, dense oracle %v", label, gotErr, wantErr)
	}
	rel, relErr := relmodel.AnalyzeChains(p)
	if wantErr != nil {
		if relErr == nil {
			t.Fatalf("%s: AnalyzeChains accepted a pair the oracle rejects (%v)", label, wantErr)
		}
		return
	}
	if relErr != nil {
		t.Fatalf("%s: AnalyzeChains: %v", label, relErr)
	}
	if gotShared != wantShared || !markov.ResultsEqualBits(gotT, wantT) || !markov.ResultsEqualBits(gotF, wantF) {
		t.Fatalf("%s: AnalyzePair diverged from the dense oracle (shared %v, oracle %v)", label, gotShared, wantShared)
	}
	pErr, _ := fc.AbsorptionProbability(wantF, "Error")
	pPerm, _ := fc.AbsorptionProbability(wantF, "PermFail")
	if !sameBits(rel.AvgExTimeUS, wantT.ExpectedTime) || !sameBits(rel.ErrProb, pErr) || !sameBits(rel.PermFailProb, pPerm) {
		t.Fatalf("%s: AnalyzeChains %+v, dense oracle time %v error %v perm %v",
			label, rel, wantT.ExpectedTime, pErr, pPerm)
	}
	n.pairs++
	if wantShared {
		n.shared++
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestChainParamsSweepMatchesDenseOracle sweeps the chain parameters over
// fault rates from 1e-18 to 1e-2 per µs, 0–6 checkpoints with equal and
// unequal intervals, checkpoint errors on and off, and the permanent
// process off and on, with no system leaving the plan replay.
func TestChainParamsSweepMatchesDenseOracle(t *testing.T) {
	var n oracleCounts
	before := relmodel.PairSolveTotals()
	for _, lambda := range []float64{0, 1e-18, 1e-15, 1e-12, 1e-9, 1e-6, 1e-4, 1e-2} {
		for ck := 0; ck <= 6; ck++ {
			for _, unequal := range []bool{false, true} {
				for _, perm := range []float64{0, 1e-7, 1e-3} {
					for _, chkErr := range []bool{false, true} {
						p := relmodel.ChainParams{
							ExecTimeUS: 1000, LambdaPerUS: lambda, Checkpoints: ck,
							DetTimeUS: 5, TolTimeUS: 50, ChkTimeUS: 10,
							MHW: 0.3, MImplSSW: 0.2, CovDet: 0.9, MTol: 0.95, MASW: 0.5,
							ModelCheckpointErrors: chkErr,
							PermPerUS:             perm, RepairProb: 0.7, RepairTimeUS: 100,
						}
						if unequal {
							// Interval i gets a share proportional to i+1.
							total := float64((ck + 1) * (ck + 2) / 2)
							for i := 0; i <= ck; i++ {
								p.IntervalFracs = append(p.IntervalFracs, float64(i+1)/total)
							}
						}
						checkParams(t, p, "sweep", &n)
					}
				}
			}
		}
	}
	if n.shared == 0 || n.shared == n.pairs {
		t.Fatalf("sweep covered %d pairs, %d shared: want both shared and solo solves", n.pairs, n.shared)
	}
	requireNoFallbacks(t, before)
}

// TestCorpusCandidatesMatchDenseOracle checks the chains of every tDSE
// candidate of the committed mixed-criticality corpus against the dense
// oracle (every 16th candidate under the race detector), with no system
// leaving the plan replay.
func TestCorpusCandidatesMatchDenseOracle(t *testing.T) {
	files, err := filepath.Glob("../../cmd/tgffgen/testdata/suite/*.job.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus job specs found (%v)", err)
	}
	stride := 1
	if raceEnabled {
		stride = 16
	}
	var n oracleCounts
	before := relmodel.PairSolveTotals()
	for _, f := range files {
		blob, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var spec service.JobSpec
		if err := json.Unmarshal(blob, &spec); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if err := spec.Normalize(); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		// Build the instance only: the oracle enumerates the candidates
		// itself, so the job's own task-level library is not needed.
		lib := spec
		lib.Method = "fcclr"
		inst, _, err := service.Build(&lib)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		opt := tdse.DefaultOptions()
		opt.Faults = spec.Faults
		if spec.CkptModes {
			opt.Checkpoints = tdse.CheckpointAxis(spec.CkptIntervals)
		}
		for tt := 0; tt < inst.Lib.NumTypes(); tt++ {
			cands, err := tdse.List(inst.Lib, tt, inst.Platform, inst.Catalog, opt)
			if err != nil {
				t.Fatalf("%s: %v", f, err)
			}
			for i := 0; i < len(cands); i += stride {
				c := cands[i]
				pt := inst.Platform.Types()[c.Base.PETypeIndex]
				p, err := relmodel.ChainParamsFor(c.Base, c.Assignment, pt, inst.Catalog, opt.Faults.For(pt.Name), c.Checkpoint)
				if err != nil {
					t.Fatalf("%s: type %d candidate %d: %v", f, tt, i, err)
				}
				checkParams(t, p, filepath.Base(f), &n)
			}
		}
	}
	t.Logf("%d corpus candidates checked, %d with a shared system", n.pairs, n.shared)
	if n.shared == 0 || n.shared == n.pairs {
		t.Fatalf("corpus covered %d pairs, %d shared: want both shared and solo solves", n.pairs, n.shared)
	}
	requireNoFallbacks(t, before)
}

package relmodel_test

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/relmodel"
	"repro/internal/service"
	"repro/internal/tdse"
)

// TestEstimateMatchesChainsCorpus compares the closed forms with the chain
// solver on every tDSE candidate of the committed mixed-criticality
// corpus, every 16th under the race detector: EstimateChains with
// AnalyzeChains, and EstimateFM with EvaluateFM on the candidates
// tdse.List enumerates. The non-chain metrics must match bit for bit, and the
// chain-derived figures within a relative gap of 1e-9, a thousandth of the
// tDSE screen's slack.
func TestEstimateMatchesChainsCorpus(t *testing.T) {
	files, err := filepath.Glob("../../cmd/tgffgen/testdata/suite/*.job.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus job specs found (%v)", err)
	}
	stride := 1
	if raceEnabled {
		stride = 16
	}
	worst, checked := 0.0, 0
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
		inst, err := service.Validate(&spec)
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
				exact, err := relmodel.EvaluateFM(c.Base, c.Assignment, pt, inst.Catalog, opt.Faults.For(pt.Name), c.Checkpoint)
				if err != nil {
					t.Fatalf("%s: type %d candidate %d: %v", f, tt, i, err)
				}
				est, err := relmodel.EstimateFM(c.Base, c.Assignment, pt, inst.Catalog, opt.Faults.For(pt.Name), c.Checkpoint)
				if err != nil {
					t.Fatalf("%s: type %d candidate %d: %v", f, tt, i, err)
				}
				gap := metricsGap(t, est, exact)
				p, err := relmodel.ChainParamsFor(c.Base, c.Assignment, pt, inst.Catalog, opt.Faults.For(pt.Name), c.Checkpoint)
				if err != nil {
					t.Fatal(err)
				}
				gap = max(gap, chainGap(t, p))
				if !(gap <= 1e-9) {
					t.Fatalf("%s: type %d candidate %d: relative gap %.3g\nestimate %+v\nexact    %+v",
						filepath.Base(f), tt, i, gap, est, exact)
				}
				worst = max(worst, gap)
				checked++
			}
		}
	}
	t.Logf("%d corpus candidates, largest relative gap %.3g", checked, worst)
}

// chainGap returns the largest relative gap between EstimateChains and
// AnalyzeChains over AvgExT, ErrProb and PermFailProb.
func chainGap(t *testing.T, p relmodel.ChainParams) float64 {
	t.Helper()
	want, err := relmodel.AnalyzeChains(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := relmodel.EstimateChains(p)
	if err != nil {
		t.Fatal(err)
	}
	return max(relGap(got.AvgExTimeUS, want.AvgExTimeUS), relGap(got.ErrProb, want.ErrProb),
		relGap(got.PermFailProb, want.PermFailProb))
}

// relGap is |a − b| / |b|, zero when the two are equal.
func relGap(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Abs(b)
}

// metricsGap requires the non-chain metrics of est and exact to be
// bit-identical and returns the largest relative gap of the chain-derived
// ones.
func metricsGap(t *testing.T, est, exact relmodel.Metrics) float64 {
	t.Helper()
	bits := math.Float64bits
	if bits(est.MinExTimeUS) != bits(exact.MinExTimeUS) || bits(est.EtaHours) != bits(exact.EtaHours) ||
		bits(est.PowerW) != bits(exact.PowerW) || bits(est.TempC) != bits(exact.TempC) {
		t.Fatalf("non-chain metrics differ:\nestimate %+v\nexact    %+v", est, exact)
	}
	return max(relGap(est.AvgExTimeUS, exact.AvgExTimeUS), relGap(est.ErrProb, exact.ErrProb),
		relGap(est.PermFailProb, exact.PermFailProb), relGap(est.MTTFHours, exact.MTTFHours),
		relGap(est.EnergyUJ, exact.EnergyUJ))
}

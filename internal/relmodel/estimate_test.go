package relmodel

import (
	"math"
	"testing"
)

// estimateTolerance is the largest relative gap the closed forms may show
// against the chain solver: a thousandth of the tDSE screen's slack
// (tdse.ScreenSlack), so the screen's band keeps a 1000× margin.
const estimateTolerance = 1e-9

// relGap is |a − b| / |b|, zero when the two are equal (both zero
// included).
func relGap(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Abs(b)
}

// estimateGap returns the largest relative gap between EstimateChains and
// AnalyzeChains over AvgExT, ErrProb and PermFailProb, and requires
// MinExTimeUS to match bit for bit.
func estimateGap(t *testing.T, p ChainParams) float64 {
	t.Helper()
	want, err := AnalyzeChains(p)
	if err != nil {
		t.Fatalf("%+v: AnalyzeChains: %v", p, err)
	}
	got, err := EstimateChains(p)
	if err != nil {
		t.Fatalf("%+v: EstimateChains: %v", p, err)
	}
	if math.Float64bits(got.MinExTimeUS) != math.Float64bits(want.MinExTimeUS) {
		t.Fatalf("%+v: MinExTimeUS %v, chain %v", p, got.MinExTimeUS, want.MinExTimeUS)
	}
	return max(relGap(got.AvgExTimeUS, want.AvgExTimeUS), relGap(got.ErrProb, want.ErrProb),
		relGap(got.PermFailProb, want.PermFailProb))
}

// TestEstimateMatchesChainsGrid compares the closed forms with the chain
// solver over fault rates up to 3e-2 per µs, 0–6 checkpoints with equal
// and unequal intervals, checkpoint errors on and off, permanent rates up
// to 1e-2 per µs with no, partial and certain repair, and detection
// coverage up to 0.9992.
func TestEstimateMatchesChainsGrid(t *testing.T) {
	worst, points := 0.0, 0
	for _, lambda := range []float64{0, 1e-9, 1e-6, 1e-4, 1e-3, 3e-2} {
		for ck := 0; ck <= 6; ck++ {
			for _, perm := range []float64{0, 1e-7, 1e-4, 1e-2} {
				for _, repair := range []float64{0, 0.7, 1} {
					for _, cov := range []float64{0, 0.5, 0.9, 0.99, 0.9992} {
						for _, unequal := range []bool{false, true} {
							for _, chkErr := range []bool{false, true} {
								p := ChainParams{
									ExecTimeUS: 1000, LambdaPerUS: lambda, Checkpoints: ck,
									DetTimeUS: 5, TolTimeUS: 50, ChkTimeUS: 10,
									MHW: 0.3, MImplSSW: 0.2, CovDet: cov, MTol: 0.95, MASW: 0.5,
									ModelCheckpointErrors: chkErr,
									PermPerUS:             perm, RepairProb: repair, RepairTimeUS: 100,
								}
								if unequal {
									// Interval i gets a share proportional to i+1.
									total := float64((ck + 1) * (ck + 2) / 2)
									for i := 0; i <= ck; i++ {
										p.IntervalFracs = append(p.IntervalFracs, float64(i+1)/total)
									}
								}
								gap := estimateGap(t, p)
								if !(gap <= estimateTolerance) {
									t.Fatalf("%+v: relative gap %.3g exceeds %g", p, gap, estimateTolerance)
								}
								worst = max(worst, gap)
								points++
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d points, largest relative gap %.3g", points, worst)
}

// TestEstimateNonAbsorbing: a loop the chain never leaves has no finite
// estimate, where the chain solver reports an error.
func TestEstimateNonAbsorbing(t *testing.T) {
	p := baseParams()
	p.PermPerUS, p.RepairProb = 1, 1 // a hit is certain and always repaired
	if _, err := AnalyzeChains(p); err == nil {
		t.Fatal("AnalyzeChains accepted a chain that never absorbs")
	}
	got, err := EstimateChains(p)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(got.AvgExTimeUS, 0) && !math.IsNaN(got.AvgExTimeUS) {
		t.Fatalf("estimate of a non-absorbing chain is finite: %+v", got)
	}
}

// TestEstimateMinExTimeIsNoLowerBound pins the pitfall a screen must not
// fall into: with permanent faults on, AvgExT can sit well below MinExT,
// because PermFail absorbs before the later intervals run.
func TestEstimateMinExTimeIsNoLowerBound(t *testing.T) {
	p := baseParams()
	p.LambdaPerUS, p.PermPerUS, p.Checkpoints = 0, 1e-3, 6
	got, err := EstimateChains(p)
	if err != nil {
		t.Fatal(err)
	}
	if !(got.AvgExTimeUS < got.MinExTimeUS) {
		t.Fatalf("AvgExT %v not below MinExT %v", got.AvgExTimeUS, got.MinExTimeUS)
	}
	if gap := estimateGap(t, p); gap > estimateTolerance {
		t.Fatalf("relative gap %.3g", gap)
	}
}

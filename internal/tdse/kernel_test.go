package tdse_test

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/characterize"
	"repro/internal/faultmodel"
	"repro/internal/platform"
	"repro/internal/relmodel"
	"repro/internal/tdse"
)

// TestGroupEstimatesMatchEstimateFM holds the fused estimation kernel to
// its per-candidate oracle: every group of every task type visits the
// candidates of its PE type in List's order, the groups come in order of
// first appearance of their PE types, and each candidate's estimate equals
// relmodel.EstimateFM bit for bit on all nine metrics. It covers the
// paper's applications, the Fig. 6(b) sweep, the FPGA family and the
// committed corpus (every 16th candidate under the race detector).
func TestGroupEstimatesMatchEstimateFM(t *testing.T) {
	stride := 1
	if raceEnabled {
		stride = 16
	}
	checked := 0
	for _, c := range append(paperCases(), corpusCases(t)...) {
		for tt := 0; tt < c.lib.NumTypes(); tt++ {
			all, err := tdse.List(c.lib, tt, c.p, c.cat, c.opt)
			if err != nil {
				t.Fatalf("%s: type %d: %v", c.name, tt, err)
			}
			groups, err := tdse.GroupEstimates(c.lib, tt, c.p, c.cat, c.opt)
			if err != nil {
				t.Fatalf("%s: type %d: %v", c.name, tt, err)
			}
			var types []int
			for _, g := range groups {
				types = append(types, g[0].Base.PETypeIndex)
			}
			if want := peTypesOf(all); !slices.Equal(types, want) {
				t.Fatalf("%s: type %d: groups on PE types %v, want %v", c.name, tt, types, want)
			}
			for _, g := range groups {
				pti := g[0].Base.PETypeIndex
				want := slices.DeleteFunc(slices.Clone(all), func(c tdse.Candidate) bool { return c.Base.PETypeIndex != pti })
				if len(g) != len(want) {
					t.Fatalf("%s: type %d, PE type %d: %d candidates, want %d", c.name, tt, pti, len(g), len(want))
				}
				pt := c.p.Types()[pti]
				for i := 0; i < len(g); i += stride {
					got := g[i]
					if got.Base != want[i].Base || got.Assignment != want[i].Assignment || got.Checkpoint != want[i].Checkpoint {
						t.Fatalf("%s: type %d, PE type %d, candidate %d: %+v, want %+v", c.name, tt, pti, i, got, want[i])
					}
					ck := got.Checkpoint
					if c.opt.Faults == nil && !ck.Enabled() {
						ck = faultmodel.CheckpointPolicy{}
					}
					est, err := relmodel.EstimateFM(got.Base, got.Assignment, pt, c.cat, c.opt.Faults.For(pt.Name), ck)
					if err != nil {
						t.Fatalf("%s: type %d, candidate %+v: %v", c.name, tt, got, err)
					}
					if metricBits(got.Metrics) != metricBits(est) {
						t.Fatalf("%s: type %d, candidate %+v:\nfused    %+v\nEstimateFM %+v", c.name, tt, got, got.Metrics, est)
					}
					checked++
				}
			}
		}
	}
	t.Logf("%d candidates checked", checked)
}

// peTypesOf lists the PE types of cands in order of first appearance.
func peTypesOf(cands []tdse.Candidate) []int {
	var out []int
	for _, c := range cands {
		if !slices.Contains(out, c.Base.PETypeIndex) {
			out = append(out, c.Base.PETypeIndex)
		}
	}
	return out
}

// TestBuildIndependentOfWorkers requires Build to return the same
// libraries, bit for bit, at GOMAXPROCS 1 and 4 and when four Builds run
// at once, and the screen to fall back nowhere. The cases are Sobel under
// tDSE_3 and the safety-critical corpus spec under tDSE_1.
func TestBuildIndependentOfWorkers(t *testing.T) {
	p := platform.Default()
	sets := tdse.StudyObjectiveSets()
	cases := []struct {
		exploreCase
		objs []tdse.Objective
	}{
		{exploreCase{"sobel", characterize.Sobel(p), p, relmodel.DefaultCatalog(), tdse.DefaultOptions()}, sets[2]},
		{corpusCases(t)[0], sets[0]},
	}
	defer func(before uint64) {
		if n := tdse.ScreenFallbacks() - before; n != 0 {
			t.Fatalf("Build fell back to the full path %d times", n)
		}
	}(tdse.ScreenFallbacks())
	for _, c := range cases {
		build := func() (*tdse.Library, error) { return tdse.Build(c.lib, c.p, c.cat, c.opt, c.objs) }
		prev := runtime.GOMAXPROCS(1)
		want, err := build()
		runtime.GOMAXPROCS(4)
		if err != nil {
			runtime.GOMAXPROCS(prev)
			t.Fatalf("%s: %v", c.name, err)
		}
		libs := make([]*tdse.Library, 5)
		errs := make([]error, len(libs))
		libs[0], errs[0] = build()
		var wg sync.WaitGroup
		for i := 1; i < len(libs); i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				libs[i], errs[i] = build()
			}()
		}
		wg.Wait()
		runtime.GOMAXPROCS(prev)
		for i, got := range libs {
			if errs[i] != nil {
				t.Fatalf("%s: build %d: %v", c.name, i, errs[i])
			}
			for tt := range want.ByType {
				if ok, diff := sameLibrary(got.ByType[tt], want.ByType[tt]); !ok {
					t.Fatalf("%s: build %d, type %d differs from the one-worker build: %s", c.name, i, tt, diff)
				}
			}
		}
	}
}

// TestExploreKeepsErrorText: an invalid fault model, checkpoint policy or
// method index falls back to the full path, which reports the lowest
// failing candidate's error, the same text as the unscreened enumeration.
func TestExploreKeepsErrorText(t *testing.T) {
	p := platform.Default()
	lib := characterize.Sobel(p)
	cat := relmodel.DefaultCatalog()
	badFM, badPolicy, badHW := tdse.DefaultOptions(), tdse.DefaultOptions(), tdse.DefaultOptions()
	badFM.Faults = &faultmodel.Model{PerType: map[string]faultmodel.FaultModel{
		p.Types()[1].Name: {TransientScale: -1},
	}}
	badPolicy.Checkpoints = []faultmodel.CheckpointPolicy{{}, {Mode: faultmodel.CkptLocal, Interval: 17}}
	badHW.HW = []int{0, 4}
	for _, tc := range []struct {
		opt  tdse.Options
		want string
	}{
		{badFM, `tdse: task type 0: relmodel: evaluating "GScale/bare/pt1": faultmodel: transient_scale = -1 must be finite and non-negative`},
		{badPolicy, `tdse: task type 0: relmodel: evaluating "GScale/bare/pt0": faultmodel: checkpoint interval 17 exceeds the 16-checkpoint cap`},
		{badHW, `tdse: task type 0: relmodel: HW method index 4 outside [0,4)`},
	} {
		objs := tdse.StudyObjectiveSets()[0]
		_, enumErr := tdse.Enumerate(lib, 0, p, cat, tc.opt)
		_, exploreErr := tdse.Explore(lib, 0, p, cat, tc.opt, objs)
		_, buildErr := tdse.Build(lib, p, cat, tc.opt, objs)
		for name, err := range map[string]error{"Enumerate": enumErr, "Explore": exploreErr, "Build": buildErr} {
			if fmt.Sprint(err) != tc.want {
				t.Errorf("%s: error %v, want %s", name, err, tc.want)
			}
		}
	}
}

// TestScreenTotalsCount: a Build estimates every candidate once, solves
// the chains of a subset that holds the library, and falls back nowhere.
func TestScreenTotalsCount(t *testing.T) {
	p := platform.Default()
	lib, cat := characterize.Sobel(p), relmodel.DefaultCatalog()
	objs := tdse.StudyObjectiveSets()[1]
	cands, kept := 0, 0
	before := tdse.ScreenTotals()
	flib, err := tdse.Build(lib, p, cat, tdse.DefaultOptions(), objs)
	if err != nil {
		t.Fatal(err)
	}
	after := tdse.ScreenTotals()
	for tt := 0; tt < lib.NumTypes(); tt++ {
		all, err := tdse.List(lib, tt, p, cat, tdse.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		cands += len(all)
		kept += len(flib.Impls(tt))
	}
	est, solved := after.Estimated-before.Estimated, after.Solved-before.Solved
	if est != uint64(cands) || solved < uint64(kept) || solved >= est || after.Fallbacks != before.Fallbacks {
		t.Fatalf("%d candidates, %d kept: counted %d estimated, %d solved, %d fallbacks",
			cands, kept, est, solved, after.Fallbacks-before.Fallbacks)
	}
}

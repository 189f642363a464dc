package tdse_test

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/characterize"
	"repro/internal/faultmodel"
	"repro/internal/platform"
	"repro/internal/relmodel"
	"repro/internal/service"
	"repro/internal/tdse"
)

// exploreCase is one tDSE input: a library on a platform under a catalog
// and enumeration options.
type exploreCase struct {
	name string
	lib  *characterize.Library
	p    *platform.Platform
	cat  *relmodel.Catalog
	opt  tdse.Options
}

// allObjectiveSets is every objective set the project uses: the three
// tDSE study sets and the six cumulative TABLE IV rows, without the one
// duplicate (tDSE_1 is row II).
func allObjectiveSets() [][]tdse.Objective {
	var out [][]tdse.Objective
	for _, objs := range append(tdse.StudyObjectiveSets(), tdse.ObjectiveSets()...) {
		if !slices.ContainsFunc(out, func(o []tdse.Objective) bool { return slices.Equal(o, objs) }) {
			out = append(out, objs)
		}
	}
	return out
}

// paperCases are the paper's applications, the Fig. 6(b) implicit-masking
// sweep and the FPGA family's three ext-fpga regimes.
func paperCases() []exploreCase {
	p := platform.Default()
	out := []exploreCase{
		{"sobel", characterize.Sobel(p), p, relmodel.DefaultCatalog(), tdse.DefaultOptions()},
		{"jpeg", characterize.JPEG(p), p, relmodel.DefaultCatalog(), tdse.DefaultOptions()},
		{"synthetic", characterize.Synthetic(p, characterize.DefaultSyntheticConfig(10), 42), p,
			relmodel.ExtendedCatalog(), tdse.DefaultOptions()},
	}
	for _, mask := range []float64{0, 0.05, 0.10, 0.20} {
		opt := tdse.DefaultOptions()
		opt.ImplicitMaskingOverride = mask
		opt.Modes = []int{1, 2}
		out = append(out, exploreCase{fmt.Sprintf("fig6b-mask%v", mask), characterize.Sobel(p), p,
			relmodel.DefaultCatalog(), opt})
	}
	fp := platform.FPGA()
	model := &faultmodel.Model{
		Default: faultmodel.FaultModel{PermanentPerHour: 80, RepairProb: 0.6, RepairTimeUS: 80},
	}
	faulty, ckpt := tdse.DefaultOptions(), tdse.DefaultOptions()
	faulty.Faults, ckpt.Faults = model, model
	ckpt.Checkpoints = tdse.CheckpointAxis([]int{1, 2})
	for i, opt := range []tdse.Options{tdse.DefaultOptions(), faulty, ckpt} {
		out = append(out, exploreCase{fmt.Sprintf("fpga-%d", i),
			characterize.Synthetic(fp, characterize.DefaultSyntheticConfig(10), 7), fp,
			relmodel.FPGACatalog(), opt})
	}
	return out
}

// corpusCases are the job specs of the committed mixed-criticality corpus.
func corpusCases(t *testing.T) []exploreCase {
	t.Helper()
	files, err := filepath.Glob("../../cmd/tgffgen/testdata/suite/*.job.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus job specs found (%v)", err)
	}
	var out []exploreCase
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
		out = append(out, exploreCase{filepath.Base(f), inst.Lib, inst.Platform, inst.Catalog, opt})
	}
	return out
}

// metricBits is a candidate's metrics as raw bits, for bitwise comparison.
func metricBits(m relmodel.Metrics) [9]uint64 {
	b := math.Float64bits
	return [9]uint64{b(m.EtaHours), b(m.MinExTimeUS), b(m.AvgExTimeUS), b(m.ErrProb),
		b(m.PermFailProb), b(m.MTTFHours), b(m.PowerW), b(m.EnergyUJ), b(m.TempC)}
}

// sameLibrary reports whether two candidate lists are equal, metrics bit
// for bit, and describes the first difference.
func sameLibrary(got, want []tdse.Candidate) (bool, string) {
	if len(got) != len(want) {
		return false, fmt.Sprintf("%d candidates, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Base != w.Base || g.Assignment != w.Assignment || g.Checkpoint != w.Checkpoint ||
			metricBits(g.Metrics) != metricBits(w.Metrics) {
			return false, fmt.Sprintf("candidate %d: %+v, want %+v", i, g, w)
		}
	}
	return true, ""
}

// checkExploreMatchesFilter requires Explore to return Filter(Enumerate)
// bit for bit, without falling back to the full path, for every task type
// of c under every objective set, and
// returns the number of candidates and of library entries it compared.
// Explore runs at GOMAXPROCS 4 under every set and, to keep the test
// short, at GOMAXPROCS 1 under one set per task type, in rotation. Under
// the race detector only that one set is checked.
func checkExploreMatchesFilter(t *testing.T, c exploreCase, sets [][]tdse.Objective) (cands, kept int) {
	t.Helper()
	// Every input here is valid, so the screen must never fall back: a
	// fallback would keep the output right while losing the speed.
	defer func(before uint64) {
		if n := tdse.ScreenFallbacks() - before; n != 0 {
			t.Fatalf("%s: Explore fell back to the full path %d times", c.name, n)
		}
	}(tdse.ScreenFallbacks())
	for tt := 0; tt < c.lib.NumTypes(); tt++ {
		all, err := tdse.Enumerate(c.lib, tt, c.p, c.cat, c.opt)
		if err != nil {
			t.Fatalf("%s: type %d: %v", c.name, tt, err)
		}
		cands += len(all)
		for si, objs := range sets {
			if raceEnabled && si != tt%len(sets) {
				continue
			}
			want := tdse.Filter(all, objs)
			kept += len(want)
			procsList := []int{4}
			if si == tt%len(sets) {
				procsList = append(procsList, 1)
			}
			for _, procs := range procsList {
				prev := runtime.GOMAXPROCS(procs)
				got, err := tdse.Explore(c.lib, tt, c.p, c.cat, c.opt, objs)
				runtime.GOMAXPROCS(prev)
				if err != nil {
					t.Fatalf("%s: type %d, set %d, procs %d: %v", c.name, tt, si, procs, err)
				}
				if ok, diff := sameLibrary(got, want); !ok {
					t.Fatalf("%s: type %d, set %d %v, procs %d: Explore differs from Filter(Enumerate): %s",
						c.name, tt, si, objs, procs, diff)
				}
			}
		}
	}
	return cands, kept
}

// TestExploreMatchesFilterPaper holds the screen's contract on the paper's
// applications, the Fig. 6(b) sweep and the FPGA family: Explore returns
// Filter(Enumerate(...)) bit for bit under every objective set.
// Under the race detector the two largest cases are left out.
func TestExploreMatchesFilterPaper(t *testing.T) {
	for _, c := range paperCases() {
		if raceEnabled && (c.name == "synthetic" || c.name == "fpga-2") {
			continue
		}
		n, k := checkExploreMatchesFilter(t, c, allObjectiveSets())
		t.Logf("%s: %d candidates, %d library entries over all sets", c.name, n, k)
	}
}

// TestExploreMatchesFilterCorpus is TestExploreMatchesFilterPaper on the
// committed mixed-criticality corpus (one mission-critical job spec only
// under the race detector).
func TestExploreMatchesFilterCorpus(t *testing.T) {
	cases := corpusCases(t)
	if raceEnabled {
		cases = cases[1:2]
	}
	for _, c := range cases {
		n, k := checkExploreMatchesFilter(t, c, allObjectiveSets())
		t.Logf("%s: %d candidates, %d library entries over all sets", c.name, n, k)
	}
}

// TestExploreFallsBackOnSingularChains: a permanent hit that is certain
// and always repaired is a loop no chain leaves. Its estimate is not
// finite, so Explore falls back to the full path and reports the error
// Enumerate reports, the lowest failing candidate's.
func TestExploreFallsBackOnSingularChains(t *testing.T) {
	p := platform.Default()
	lib := characterize.Sobel(p)
	opt := tdse.DefaultOptions()
	opt.Faults = &faultmodel.Model{Default: faultmodel.FaultModel{PermanentPerHour: 1e11, RepairProb: 1}}
	_, want := tdse.Enumerate(lib, 0, p, relmodel.DefaultCatalog(), opt)
	if want == nil || !strings.Contains(want.Error(), "not absorbing") {
		t.Fatalf("Enumerate: err %v, want a singular chain", want)
	}
	before := tdse.ScreenFallbacks()
	_, got := tdse.Explore(lib, 0, p, relmodel.DefaultCatalog(), opt, tdse.StudyObjectiveSets()[0])
	if got == nil || got.Error() != want.Error() {
		t.Fatalf("Explore: err %v, want %v", got, want)
	}
	if n := tdse.ScreenFallbacks() - before; n != 1 {
		t.Fatalf("%d fallbacks, want 1", n)
	}
}

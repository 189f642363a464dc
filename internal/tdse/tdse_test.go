package tdse

import (
	"testing"

	"repro/internal/characterize"
	"repro/internal/pareto"
	"repro/internal/platform"
	"repro/internal/relmodel"
)

// vector extracts the full minimization vector for the objective set.
func vector(m relmodel.Metrics, objectives []Objective) []float64 {
	out := make([]float64, len(objectives))
	for i, o := range objectives {
		out[i] = Value(m, o)
	}
	return out
}

func setup() (*characterize.Library, *platform.Platform, *relmodel.Catalog) {
	p := platform.Default()
	return characterize.Sobel(p), p, relmodel.DefaultCatalog()
}

func TestObjectiveStrings(t *testing.T) {
	for o := Objective(0); o < numObjectives; o++ {
		if o.String() == "" {
			t.Fatalf("objective %d has empty name", o)
		}
	}
	if Objective(99).String() == "" {
		t.Fatal("unknown objective should still render")
	}
}

func TestObjectiveSetsCumulative(t *testing.T) {
	sets := ObjectiveSets()
	if len(sets) != 6 {
		t.Fatalf("want 6 cumulative sets (TABLE IV rows), got %d", len(sets))
	}
	for i, s := range sets {
		if len(s) != i+1 {
			t.Fatalf("set %d has %d objectives, want %d", i, len(s), i+1)
		}
	}
	if sets[0][0] != AvgExT || sets[1][1] != ErrProb || sets[2][2] != MTTF {
		t.Fatal("cumulative order wrong")
	}
}

func TestValueSigns(t *testing.T) {
	m := relmodel.Metrics{
		AvgExTimeUS: 10, ErrProb: 0.1, MTTFHours: 1e5,
		EnergyUJ: 20, PowerW: 2, TempC: 60,
	}
	if Value(m, AvgExT) != 10 || Value(m, ErrProb) != 0.1 {
		t.Fatal("direct objectives wrong")
	}
	if Value(m, MTTF) != -1e5 {
		t.Fatal("MTTF must be negated for minimization")
	}
	v := vector(m, []Objective{Power, PeakTemp, Energy})
	if v[0] != 2 || v[1] != 60 || v[2] != 20 {
		t.Fatalf("vector = %v", v)
	}
}

func TestEnumerateCounts(t *testing.T) {
	lib, p, cat := setup()
	cands, err := Enumerate(lib, 0, p, cat, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// 4 impls × 3 modes × 4 HW × 4 SSW × 4 ASW = 768.
	if len(cands) != 768 {
		t.Fatalf("enumerated %d candidates, want 768", len(cands))
	}
}

func TestEnumerateRestricted(t *testing.T) {
	lib, p, cat := setup()
	opt := DefaultOptions()
	opt.Modes = []int{0}
	opt.HW = []int{0}
	opt.SSW = []int{0, 1}
	opt.ASW = []int{0}
	cands, err := Enumerate(lib, 0, p, cat, opt)
	if err != nil {
		t.Fatal(err)
	}
	// 4 impls × 1 × 1 × 2 × 1 = 8.
	if len(cands) != 8 {
		t.Fatalf("enumerated %d, want 8", len(cands))
	}
	for _, c := range cands {
		if c.Assignment.Mode != 0 || c.Assignment.HW != 0 || c.Assignment.ASW != 0 {
			t.Fatal("restriction not honored")
		}
	}
}

func TestImplicitMaskingOverride(t *testing.T) {
	lib, p, cat := setup()
	opt := DefaultOptions()
	opt.Modes, opt.HW, opt.SSW, opt.ASW = []int{0}, []int{0}, []int{0}, []int{0}

	opt.ImplicitMaskingOverride = 0
	zero, err := Enumerate(lib, 0, p, cat, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.ImplicitMaskingOverride = 0.20
	high, err := Enumerate(lib, 0, p, cat, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range zero {
		if !(high[i].Metrics.ErrProb < zero[i].Metrics.ErrProb) {
			t.Fatalf("20%% implicit masking should lower ErrProb: %v vs %v",
				high[i].Metrics.ErrProb, zero[i].Metrics.ErrProb)
		}
	}
}

func TestFilterPerPEType(t *testing.T) {
	lib, p, cat := setup()
	// Single objective: expect exactly one survivor per PE type (row I of
	// TABLE IV: 2 points for two processor types).
	f, err := Explore(lib, 0, p, cat, DefaultOptions(), []Objective{AvgExT})
	if err != nil {
		t.Fatal(err)
	}
	perType := map[int]int{}
	for _, c := range f {
		perType[c.Base.PETypeIndex]++
	}
	if len(perType) != 2 {
		t.Fatalf("filtered impls span %d PE types, want 2", len(perType))
	}
	for pti, n := range perType {
		if n != 1 {
			t.Fatalf("PE type %d kept %d single-objective survivors, want 1", pti, n)
		}
	}
}

func TestFilterMutuallyNonDominatedWithinType(t *testing.T) {
	lib, p, cat := setup()
	objs := []Objective{AvgExT, ErrProb}
	f, err := Explore(lib, 1, p, cat, DefaultOptions(), objs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f {
		for j := range f {
			if i == j || f[i].Base.PETypeIndex != f[j].Base.PETypeIndex {
				continue
			}
			if pareto.Dominates(vector(f[i].Metrics, objs), vector(f[j].Metrics, objs)) {
				t.Fatal("filtered set contains dominated candidate within a PE type")
			}
		}
	}
}

func TestTable4GrowthAndSaturation(t *testing.T) {
	// The central TABLE IV property: front sizes grow from row I to row
	// III, then stay constant through rows IV-VI (energy, power and peak
	// temperature are monotone functions of already-included metrics).
	lib, p, cat := setup()
	for tt := 0; tt < 4; tt++ {
		var counts []int
		for _, objs := range ObjectiveSets() {
			f, err := Explore(lib, tt, p, cat, DefaultOptions(), objs)
			if err != nil {
				t.Fatal(err)
			}
			counts = append(counts, len(f))
		}
		if !(counts[0] < counts[1] && counts[1] <= counts[2]) {
			t.Fatalf("type %d: counts %v do not grow I→III", tt, counts)
		}
		if counts[3] != counts[2] || counts[4] != counts[2] || counts[5] != counts[2] {
			t.Fatalf("type %d: counts %v do not saturate after row III", tt, counts)
		}
	}
}

func TestBuildLibrary(t *testing.T) {
	lib, p, cat := setup()
	fl, err := Build(lib, p, cat, DefaultOptions(), []Objective{AvgExT, ErrProb})
	if err != nil {
		t.Fatal(err)
	}
	counts := fl.Counts()
	if len(counts) != 4 {
		t.Fatalf("library covers %d types, want 4", len(counts))
	}
	for tt, n := range counts {
		if n < 2 {
			t.Fatalf("type %d has %d filtered impls, want ≥ 2", tt, n)
		}
		if len(fl.Impls(tt)) != n {
			t.Fatal("Counts and Impls disagree")
		}
	}
}

func TestRicherObjectivesNeverShrinkLibrary(t *testing.T) {
	// Fig. 9 property: tDSE_1 ⊆ tDSE_2 ⊆ tDSE_3 in count.
	lib, p, cat := setup()
	sets := ObjectiveSets()
	prev := 0
	for _, objs := range sets[:3] {
		fl, err := Build(lib, p, cat, DefaultOptions(), objs)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, n := range fl.Counts() {
			total += n
		}
		if total < prev {
			t.Fatalf("objective set %v shrank the library: %d < %d", objs, total, prev)
		}
		prev = total
	}
}

func TestImplsPanicsOutOfRange(t *testing.T) {
	l := &Library{ByType: make([][]Candidate, 2)}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l.Impls(5)
}

func TestFilterEmptyObjectivesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for empty objective set")
		}
	}()
	Filter(nil, nil)
}

func TestDVFSModesProduceDistinctFrontRegions(t *testing.T) {
	// Fig. 6(a): restricting to a slower DVFS mode shifts the front right
	// (slower) — compare fastest front point per mode.
	lib, p, cat := setup()
	var minT []float64
	for mode := 0; mode < 3; mode++ {
		opt := DefaultOptions()
		opt.Modes = []int{mode}
		f, err := Explore(lib, 0, p, cat, opt, []Objective{AvgExT, ErrProb})
		if err != nil {
			t.Fatal(err)
		}
		best := f[0].Metrics.AvgExTimeUS
		for _, c := range f {
			if c.Metrics.AvgExTimeUS < best {
				best = c.Metrics.AvgExTimeUS
			}
		}
		minT = append(minT, best)
	}
	if !(minT[0] < minT[1] && minT[1] < minT[2]) {
		t.Fatalf("mode fronts not ordered by speed: %v", minT)
	}
}

package relmodel

import (
	"math"
	"testing"

	"repro/internal/platform"
)

func testImpl() Impl {
	return Impl{
		Name:            "test-impl",
		PETypeIndex:     0,
		Cycles:          360000, // 400 µs at 900 MHz
		PowerW:          0.8,
		ImplicitMasking: 0.05,
	}
}

func testPEType() *platform.PEType {
	return platform.Default().Types()[0]
}

func TestCatalogValidate(t *testing.T) {
	if err := DefaultCatalog().Validate(); err != nil {
		t.Fatalf("default catalog invalid: %v", err)
	}
}

func TestCatalogValidateRejections(t *testing.T) {
	cases := []func(*Catalog){
		func(c *Catalog) { c.HW = nil },
		func(c *Catalog) { c.HW[1].Masking = 1.2 },
		func(c *Catalog) { c.HW[1].TimeFactor = 0.9 },
		func(c *Catalog) { c.SSW[1].DetectionCoverage = -0.1 },
		func(c *Catalog) { c.SSW[2].Checkpoints = -2 },
		func(c *Catalog) { c.SSW[2].ToleranceCoverage = 0 }, // checkpoints w/o tolerance
		func(c *Catalog) { c.ASW[1].TimeFactor = 0.5 },
		func(c *Catalog) { c.ASW[1].Masking = 2 },
	}
	for i, mut := range cases {
		c := DefaultCatalog()
		mut(c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected catalog validation error", i)
		}
	}
}

func TestDefaultCatalogNoneFirst(t *testing.T) {
	c := DefaultCatalog()
	if c.HW[0].Name != "none" || c.SSW[0].Name != "none" || c.ASW[0].Name != "none" {
		t.Fatal("catalog index 0 of every layer must be the none method")
	}
	if c.HW[0].Masking != 0 || c.HW[0].TimeFactor != 1 || c.HW[0].PowerFactor != 1 {
		t.Fatal("none HW method must be overhead-free")
	}
}

func TestNumConfigs(t *testing.T) {
	c := DefaultCatalog()
	if got := c.NumConfigs(3); got != 3*4*4*4 {
		t.Fatalf("NumConfigs = %d, want 192", got)
	}
}

func TestAssignmentCheck(t *testing.T) {
	c := DefaultCatalog()
	ok := Assignment{Mode: 1, HW: 2, SSW: 3, ASW: 1}
	if err := ok.CheckAgainst(c, 3); err != nil {
		t.Fatalf("valid assignment rejected: %v", err)
	}
	bads := []Assignment{
		{Mode: 3}, {Mode: -1}, {HW: 9}, {SSW: 9}, {ASW: 9}, {HW: -1},
	}
	for _, a := range bads {
		if err := a.CheckAgainst(c, 3); err == nil {
			t.Errorf("assignment %+v accepted", a)
		}
	}
}

func TestImplValidate(t *testing.T) {
	im := testImpl()
	if err := im.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, mut := range []func(*Impl){
		func(im *Impl) { im.Cycles = 0 },
		func(im *Impl) { im.PowerW = -1 },
		func(im *Impl) { im.ImplicitMasking = 1 },
		func(im *Impl) { im.PETypeIndex = -1 },
	} {
		im := testImpl()
		mut(&im)
		if err := im.Validate(); err == nil {
			t.Errorf("case %d: expected impl validation error", i)
		}
	}
}

func TestEvaluateBaseline(t *testing.T) {
	pt := testPEType()
	cat := DefaultCatalog()
	m, err := Evaluate(testImpl(), Assignment{}, pt, cat)
	if err != nil {
		t.Fatal(err)
	}
	// 360000 cycles at 900 MHz = 400 µs, no overheads.
	if math.Abs(m.MinExTimeUS-400) > 1e-9 {
		t.Fatalf("MinExT = %v, want 400", m.MinExTimeUS)
	}
	if m.ErrProb <= 0 || m.ErrProb > 0.2 {
		t.Fatalf("baseline ErrProb = %v, want small positive", m.ErrProb)
	}
	if m.PowerW != 0.8 {
		t.Fatalf("PowerW = %v, want 0.8 at nominal with no HW method", m.PowerW)
	}
	if m.TempC <= platform.AmbientTempC {
		t.Fatal("temperature must exceed ambient under load")
	}
	if m.MTTFHours <= 0 || m.EtaHours <= 0 {
		t.Fatal("MTTF and eta must be positive")
	}
	if math.Abs(m.EnergyUJ-m.AvgExTimeUS*m.PowerW) > 1e-9 {
		t.Fatal("EnergyUJ must equal AvgExT × Power")
	}
}

func TestEvaluateDVFSTradeoff(t *testing.T) {
	pt := testPEType()
	cat := DefaultCatalog()
	nominal, err := Evaluate(testImpl(), Assignment{Mode: 0}, pt, cat)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Evaluate(testImpl(), Assignment{Mode: 2}, pt, cat)
	if err != nil {
		t.Fatal(err)
	}
	if !(slow.AvgExTimeUS > nominal.AvgExTimeUS) {
		t.Fatal("low-frequency mode must be slower")
	}
	if !(slow.PowerW < nominal.PowerW) {
		t.Fatal("low-voltage mode must draw less power")
	}
	if !(slow.ErrProb > nominal.ErrProb) {
		t.Fatal("low-voltage mode must be more error-prone")
	}
	if !(slow.TempC < nominal.TempC) {
		t.Fatal("lower power must run cooler")
	}
	if !(slow.MTTFHours > nominal.MTTFHours) {
		t.Fatal("cooler operation must extend MTTF")
	}
}

func TestEvaluateTMRTradeoff(t *testing.T) {
	pt := testPEType()
	cat := DefaultCatalog()
	none, err := Evaluate(testImpl(), Assignment{HW: 0}, pt, cat)
	if err != nil {
		t.Fatal(err)
	}
	tmr, err := Evaluate(testImpl(), Assignment{HW: 3}, pt, cat)
	if err != nil {
		t.Fatal(err)
	}
	if !(tmr.ErrProb < none.ErrProb) {
		t.Fatal("TMR must reduce error probability")
	}
	if !(tmr.PowerW > none.PowerW) {
		t.Fatal("TMR must cost power")
	}
	if !(tmr.MTTFHours < none.MTTFHours) {
		t.Fatal("TMR's heat must shorten lifetime")
	}
}

func TestEvaluateASWTradeoff(t *testing.T) {
	pt := testPEType()
	cat := DefaultCatalog()
	none, _ := Evaluate(testImpl(), Assignment{}, pt, cat)
	trip, err := Evaluate(testImpl(), Assignment{ASW: 3}, pt, cat)
	if err != nil {
		t.Fatal(err)
	}
	if !(trip.ErrProb < none.ErrProb) {
		t.Fatal("code tripling must reduce error probability")
	}
	if !(trip.MinExTimeUS > none.MinExTimeUS) {
		t.Fatal("code tripling must inflate execution time")
	}
}

func TestEvaluateSSWTradeoff(t *testing.T) {
	pt := testPEType()
	cat := DefaultCatalog()
	none, _ := Evaluate(testImpl(), Assignment{}, pt, cat)
	chk, err := Evaluate(testImpl(), Assignment{SSW: 2}, pt, cat)
	if err != nil {
		t.Fatal(err)
	}
	if !(chk.ErrProb < none.ErrProb) {
		t.Fatal("checkpointing must reduce error probability")
	}
	if !(chk.MinExTimeUS > none.MinExTimeUS) {
		t.Fatal("checkpointing overhead must inflate error-free time")
	}
}

func TestEvaluateRejectsBadInput(t *testing.T) {
	pt := testPEType()
	cat := DefaultCatalog()
	bad := testImpl()
	bad.Cycles = 0
	if _, err := Evaluate(bad, Assignment{}, pt, cat); err == nil {
		t.Error("expected error for invalid impl")
	}
	if _, err := Evaluate(testImpl(), Assignment{Mode: 7}, pt, cat); err == nil {
		t.Error("expected error for invalid assignment")
	}
}

func TestEvaluateCombinedBeatsSingleLayer(t *testing.T) {
	// The motivation for CLR: a cross-layer combination achieves lower
	// error probability than any single layer alone at this fault rate.
	pt := testPEType()
	cat := DefaultCatalog()
	im := testImpl()
	hwOnly, _ := Evaluate(im, Assignment{HW: 3}, pt, cat)
	sswOnly, _ := Evaluate(im, Assignment{SSW: 2}, pt, cat)
	aswOnly, _ := Evaluate(im, Assignment{ASW: 3}, pt, cat)
	all, err := Evaluate(im, Assignment{HW: 3, SSW: 2, ASW: 3}, pt, cat)
	if err != nil {
		t.Fatal(err)
	}
	for name, single := range map[string]Metrics{"hw": hwOnly, "ssw": sswOnly, "asw": aswOnly} {
		if all.ErrProb >= single.ErrProb {
			t.Errorf("cross-layer ErrProb %v not below %s-only %v", all.ErrProb, name, single.ErrProb)
		}
	}
}

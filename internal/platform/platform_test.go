package platform

import (
	"math"
	"testing"
	"testing/quick"
)

// mttfHours is Eq. 2 of the paper: the mean time to failure η·Γ(1 + 1/β)
// for continuous operation at tempC.
func mttfHours(pt *PEType, tempC float64) float64 {
	return pt.EtaHours(tempC) * math.Gamma(1+1/pt.WeibullBeta)
}

func testType() *PEType {
	return &PEType{
		Name:              "test",
		Class:             GeneralPurpose,
		MaskingFactor:     0.3,
		WeibullBeta:       2.0,
		EtaRefHours:       1e5,
		BaseSEURatePerSec: 1e-5,
		Modes: []DVFSMode{
			{Name: "hi", VoltageV: 1.2, FreqMHz: 900},
			{Name: "mid", VoltageV: 1.1, FreqMHz: 600},
			{Name: "lo", VoltageV: 1.06, FreqMHz: 300},
		},
		ThermalResistance: 20,
	}
}

func TestValidateOK(t *testing.T) {
	if err := testType().Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*PEType)
	}{
		{"empty name", func(p *PEType) { p.Name = "" }},
		{"masking ≥ 1", func(p *PEType) { p.MaskingFactor = 1.0 }},
		{"negative masking", func(p *PEType) { p.MaskingFactor = -0.1 }},
		{"zero beta", func(p *PEType) { p.WeibullBeta = 0 }},
		{"zero eta", func(p *PEType) { p.EtaRefHours = 0 }},
		{"zero SEU rate", func(p *PEType) { p.BaseSEURatePerSec = 0 }},
		{"no modes", func(p *PEType) { p.Modes = nil }},
		{"zero voltage", func(p *PEType) { p.Modes[1].VoltageV = 0 }},
		{"modes misordered", func(p *PEType) { p.Modes[0], p.Modes[2] = p.Modes[2], p.Modes[0] }},
		{"zero thermal resistance", func(p *PEType) { p.ThermalResistance = 0 }},
	}
	for _, c := range cases {
		pt := testType()
		c.mutate(pt)
		if err := pt.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestPowerScaleMonotone(t *testing.T) {
	pt := testType()
	prev := math.Inf(1)
	for m := range pt.Modes {
		s := pt.PowerScale(m)
		if s > prev {
			t.Fatalf("PowerScale not non-increasing at mode %d", m)
		}
		prev = s
	}
	if pt.PowerScale(0) != 1 {
		t.Fatalf("nominal PowerScale = %v, want 1", pt.PowerScale(0))
	}
}

func TestSEURateIncreasesAtLowVoltage(t *testing.T) {
	pt := testType()
	nominal := pt.SEURate(0)
	low := pt.SEURate(2)
	if low <= nominal {
		t.Fatalf("SEU rate should rise at low voltage: nominal %v, low %v", nominal, low)
	}
	// 1.2 → 1.06 V is 0.14 V ≈ 0.93 decades.
	wantRatio := math.Pow(10, (1.2-1.06)/SEUVoltageStep)
	if math.Abs(low/nominal-wantRatio) > 1e-9 {
		t.Fatalf("ratio = %v, want %v", low/nominal, wantRatio)
	}
}

func TestSEURateMasking(t *testing.T) {
	pt := testType()
	raw := *pt
	raw.MaskingFactor = 0
	if math.Abs(pt.SEURate(0)-raw.SEURate(0)*(1-pt.MaskingFactor)) > 1e-18 {
		t.Fatal("masked rate should be raw rate × (1 − masking)")
	}
}

func TestThermalModel(t *testing.T) {
	pt := testType()
	if got := pt.SteadyTempC(0); got != AmbientTempC {
		t.Fatalf("idle temp = %v, want ambient %v", got, AmbientTempC)
	}
	if got := pt.SteadyTempC(2); got != AmbientTempC+40 {
		t.Fatalf("temp at 2W = %v, want %v", got, AmbientTempC+40)
	}
}

func TestEtaShrinksWithTemperature(t *testing.T) {
	pt := testType()
	if pt.EtaHours(ReferenceTempC) != pt.EtaRefHours {
		t.Fatal("eta at reference temperature should equal EtaRefHours")
	}
	if pt.EtaHours(90) >= pt.EtaHours(60) {
		t.Fatal("eta must shrink as temperature rises")
	}
	if pt.EtaHours(40) <= pt.EtaRefHours {
		t.Fatal("eta must grow below reference temperature")
	}
}

func TestMTTFGammaFactor(t *testing.T) {
	pt := testType()
	want := pt.EtaHours(70) * math.Gamma(1+1/pt.WeibullBeta)
	if math.Abs(mttfHours(pt, 70)-want) > 1e-9 {
		t.Fatalf("MTTF = %v, want %v", mttfHours(pt, 70), want)
	}
}

func TestModeBoundsPanic(t *testing.T) {
	pt := testType()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for invalid mode index")
		}
	}()
	pt.PowerScale(5)
}

func TestNewPlatform(t *testing.T) {
	a, b := testType(), testType()
	b.Name = "other"
	p, err := New([]*PEType{a, b}, []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumPEs() != 5 {
		t.Fatalf("NumPEs = %d, want 5", p.NumPEs())
	}
	for i, pe := range p.PEs {
		if pe.ID != i {
			t.Fatalf("PE %d has ID %d", i, pe.ID)
		}
	}
	if got := len(p.PEsOfType(b)); got != 3 {
		t.Fatalf("PEsOfType(b) = %d, want 3", got)
	}
}

func TestNewPlatformErrors(t *testing.T) {
	a := testType()
	if _, err := New([]*PEType{a}, []int{1, 2}); err == nil {
		t.Error("expected error for mismatched counts")
	}
	if _, err := New([]*PEType{a}, []int{0}); err == nil {
		t.Error("expected error for zero count")
	}
	bad := testType()
	bad.Modes = nil
	if _, err := New([]*PEType{bad}, []int{1}); err == nil {
		t.Error("expected error for invalid type")
	}
}

func TestDefaultPlatformShape(t *testing.T) {
	p := Default()
	if p.NumPEs() != 6 {
		t.Fatalf("default platform has %d PEs, want 6", p.NumPEs())
	}
	if len(p.Types()) != 3 {
		t.Fatalf("default platform has %d types, want 3", len(p.Types()))
	}
	gp, rc := 0, 0
	for _, pe := range p.PEs {
		switch pe.Type.Class {
		case GeneralPurpose:
			gp++
		case Reconfigurable:
			rc++
		}
	}
	if gp != 4 || rc != 2 {
		t.Fatalf("default platform: %d general-purpose, %d reconfigurable; want 4 and 2", gp, rc)
	}
	// The two processor types must differ in masking factor per §VI.A.
	types := p.Types()
	if types[0].MaskingFactor == types[1].MaskingFactor {
		t.Fatal("processor types should have distinct masking factors")
	}
}

func TestPEClassString(t *testing.T) {
	if GeneralPurpose.String() != "general-purpose" || Reconfigurable.String() != "reconfigurable" {
		t.Fatal("unexpected PEClass strings")
	}
	if PEClass(9).String() == "" {
		t.Fatal("unknown class should still render")
	}
}

func TestPropertyDVFSTradeoffs(t *testing.T) {
	// For any valid mode pair (slower vs faster), frequency is lower,
	// power scale smaller, SEU rate larger or equal.
	pt := testType()
	f := func(aRaw, bRaw uint8) bool {
		a := int(aRaw) % len(pt.Modes)
		b := int(bRaw) % len(pt.Modes)
		if a > b {
			a, b = b, a // a = faster (lower index), b = slower
		}
		if pt.Modes[b].FreqMHz > pt.Modes[a].FreqMHz {
			return false
		}
		if pt.PowerScale(b) > pt.PowerScale(a) {
			return false
		}
		return pt.SEURate(b) >= pt.SEURate(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyMTTFDecreasingInTemp(t *testing.T) {
	pt := testType()
	f := func(t1Raw, dRaw uint8) bool {
		t1 := 40 + float64(t1Raw%60)
		t2 := t1 + 1 + float64(dRaw%30)
		return mttfHours(pt, t2) < mttfHours(pt, t1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

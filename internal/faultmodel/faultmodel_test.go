package faultmodel

import (
	"math"
	"strings"
	"testing"
)

func TestZeroValuesAreDisabled(t *testing.T) {
	var f FaultModel
	if f.Enabled() {
		t.Fatal("zero FaultModel must be disabled")
	}
	if got := f.LambdaScale(); got != 1 {
		t.Fatalf("zero LambdaScale() = %v, want 1", got)
	}
	if got := f.IntermittentPerUS(); got != 0 {
		t.Fatalf("zero IntermittentPerUS() = %v, want 0", got)
	}
	if got := f.PermanentPerUS(); got != 0 {
		t.Fatalf("zero PermanentPerUS() = %v, want 0", got)
	}
	var p CheckpointPolicy
	if p.Enabled() || p.Extra() != 0 || p.TimeFrac() != 0 || p.DetBoost() != 0 ||
		p.TolBoost() != 0 || p.PowerFactor() != 1 {
		t.Fatal("zero CheckpointPolicy must be a strict no-op")
	}
	var m *Model
	if m.Enabled() {
		t.Fatal("nil Model must be disabled")
	}
	if got := m.For("anything"); got.Enabled() {
		t.Fatal("nil Model must resolve to the disabled FaultModel")
	}
}

func TestModelResolution(t *testing.T) {
	m := &Model{
		Default: FaultModel{TransientScale: 2},
		PerType: map[string]FaultModel{
			"fpga-region": {PermanentPerHour: 1e-3, RepairProb: 0.9, RepairTimeUS: 300},
		},
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if !m.Enabled() {
		t.Fatal("model with active processes must report enabled")
	}
	if got := m.For("proc-lowmask"); got.TransientScale != 2 {
		t.Fatalf("fallback resolution = %+v, want default", got)
	}
	got := m.For("fpga-region")
	if got.PermanentPerHour != 1e-3 || got.TransientScale != 0 {
		t.Fatalf("per-type override = %+v: overrides must replace, not merge", got)
	}
}

func TestFaultModelRates(t *testing.T) {
	f := FaultModel{IntermittentPerSec: 2, IntermittentBurst: 3, PermanentPerHour: 3.6}
	if got, want := f.IntermittentPerUS(), 6.0/1e6; math.Abs(got-want) > 1e-18 {
		t.Fatalf("IntermittentPerUS = %v, want %v", got, want)
	}
	// Burst below one clamps to one upset per episode.
	f.IntermittentBurst = 0.2
	if got, want := f.IntermittentPerUS(), 2.0/1e6; math.Abs(got-want) > 1e-18 {
		t.Fatalf("IntermittentPerUS with sub-unit burst = %v, want %v", got, want)
	}
	if got, want := f.PermanentPerUS(), 1e-9; math.Abs(got-want) > 1e-24 {
		t.Fatalf("PermanentPerUS = %v, want %v", got, want)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		f    FaultModel
	}{
		{"nan scale", FaultModel{TransientScale: math.NaN()}},
		{"inf rate", FaultModel{IntermittentPerSec: math.Inf(1)}},
		{"negative rate", FaultModel{PermanentPerHour: -1}},
		{"repair prob above one", FaultModel{PermanentPerHour: 1, RepairProb: 1.5}},
		{"nan repair prob", FaultModel{PermanentPerHour: 1, RepairProb: math.NaN()}},
		{"repair without permanent", FaultModel{RepairProb: 0.5}},
		{"repair time without permanent", FaultModel{RepairTimeUS: 10}},
	}
	for _, tc := range cases {
		if err := tc.f.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.f)
		}
	}
	ok := FaultModel{TransientScale: 3, IntermittentPerSec: 0.5, IntermittentBurst: 4,
		PermanentPerHour: 2e-4, RepairProb: 0.8, RepairTimeUS: 1000}
	if err := ok.Validate(); err != nil {
		t.Fatalf("Validate rejected a sane model: %v", err)
	}
}

func TestCheckpointPolicy(t *testing.T) {
	for _, tc := range []struct {
		p    CheckpointPolicy
		want string
	}{
		{CheckpointPolicy{Mode: CkptLocal, Interval: -1}, "non-negative"},
		{CheckpointPolicy{Mode: CkptNone, Interval: 2}, "requires a mode"},
		{CheckpointPolicy{Mode: CkptTMR}, "interval ≥ 1"},
		{CheckpointPolicy{Mode: CkptLocal, Interval: 99}, "cap"},
		{CheckpointPolicy{Mode: CheckpointMode(7), Interval: 1}, "unknown"},
	} {
		err := tc.p.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Validate(%+v) = %v, want error containing %q", tc.p, err, tc.want)
		}
	}
	local := CheckpointPolicy{Mode: CkptLocal, Interval: 2}
	tmr := CheckpointPolicy{Mode: CkptTMR, Interval: 2}
	if err := local.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := tmr.Validate(); err != nil {
		t.Fatal(err)
	}
	if local.Extra() != 2 || tmr.Extra() != 2 {
		t.Fatal("Extra must equal Interval for enabled policies")
	}
	if !(tmr.TimeFrac() > local.TimeFrac()) {
		t.Fatal("TMR-voted checkpoints must cost more than local ones")
	}
	if !(tmr.DetBoost() > local.DetBoost() && tmr.TolBoost() > local.TolBoost()) {
		t.Fatal("TMR-voted checkpoints must cover more than local ones")
	}
	if !(tmr.PowerFactor() > 1) || local.PowerFactor() != 1 {
		t.Fatal("only TMR-voted checkpoints carry a power overhead")
	}
}

func TestCheckpointModeString(t *testing.T) {
	for m, want := range map[CheckpointMode]string{
		CkptNone: "none", CkptLocal: "local", CkptTMR: "tmr", 7: "CheckpointMode(7)",
	} {
		if got := m.String(); got != want {
			t.Errorf("CheckpointMode(%d).String() = %q, want %q", int(m), got, want)
		}
	}
}

func TestCombine(t *testing.T) {
	if got := Combine(0.5, 0); got != 0.5 {
		t.Fatalf("Combine(0.5, 0) = %v: zero must be an exact identity", got)
	}
	if got := Combine(0, 0.25); got != 0.25 {
		t.Fatalf("Combine(0, 0.25) = %v: zero must be an exact identity", got)
	}
	if got, want := Combine(0.5, 0.5), 0.75; math.Abs(got-want) > 1e-15 {
		t.Fatalf("Combine(0.5, 0.5) = %v, want %v", got, want)
	}
}

func TestDecodeRoundTrip(t *testing.T) {
	in := []byte(`{"default":{"transient_scale":2,"permanent_per_hour":0.0001,` +
		`"repair_prob":0.9,"repair_time_us":500},` +
		`"per_type":{"fpga-region":{"intermittent_per_sec":0.25,"intermittent_burst":4}}}`)
	m, err := Decode(in)
	if err != nil {
		t.Fatal(err)
	}
	if m.Default.TransientScale != 2 || m.PerType["fpga-region"].IntermittentBurst != 4 {
		t.Fatalf("decoded %+v", m)
	}
	enc, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Decode(enc)
	if err != nil {
		t.Fatalf("re-decoding canonical form: %v", err)
	}
	enc2, err := Encode(m2)
	if err != nil {
		t.Fatal(err)
	}
	if string(enc) != string(enc2) {
		t.Fatalf("canonical form unstable:\n%s\n%s", enc, enc2)
	}
}

func TestDecodeRejections(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   string
	}{
		{"unknown field", `{"default":{"transient_scale":1,"bogus":2}}`},
		{"negative rate", `{"default":{"permanent_per_hour":-1}}`},
		{"prob above one", `{"default":{"permanent_per_hour":1,"repair_prob":2}}`},
		{"overflowing number", `{"default":{"transient_scale":1e999}}`},
		{"trailing data", `{"default":{}} {"default":{}}`},
		{"not an object", `[1,2,3]`},
		{"empty type name", `{"per_type":{"":{"transient_scale":2}}}`},
		{"orphan repair", `{"default":{"repair_time_us":10}}`},
	} {
		if _, err := Decode([]byte(tc.in)); err == nil {
			t.Errorf("%s: Decode accepted %s", tc.name, tc.in)
		}
	}
}

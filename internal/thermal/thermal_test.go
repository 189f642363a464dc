package thermal

import (
	"math"
	"testing"

	"repro/internal/platform"
	"repro/internal/relmodel"
	"repro/internal/schedule"
	"repro/internal/taskgraph"
)

func fixture(t *testing.T, execUS, powerW float64) (*taskgraph.Graph, *platform.Platform, []schedule.TaskDecision, *schedule.Result) {
	t.Helper()
	b := taskgraph.NewBuilder("th", 10*execUS)
	b.AddTask("t", 0, 1)
	g := b.MustBuild()
	p := platform.Default()
	dec := []schedule.TaskDecision{{
		PE: 0,
		Metrics: relmodel.Metrics{
			AvgExTimeUS: execUS, MinExTimeUS: execUS,
			PowerW: powerW, MTTFHours: 1e5,
		},
	}}
	res, err := schedule.Run(g, p, []int{0}, dec)
	if err != nil {
		t.Fatal(err)
	}
	return g, p, dec, res
}

func TestTransientBoundedBySteadyState(t *testing.T) {
	g, p, dec, res := fixture(t, 5000, 2)
	tr, err := Simulate(g, p, dec, res, 5, 100)
	if err != nil {
		t.Fatal(err)
	}
	steady := p.PEs[0].Type.SteadyTempC(2)
	if tr.SteadyPeakC[0] != steady {
		t.Fatalf("steady peak %v, want %v", tr.SteadyPeakC[0], steady)
	}
	// Transient peak stays strictly between ambient and the steady bound
	// (10% duty cycle, τ much longer than the burst).
	if !(tr.PeakC[0] > platform.AmbientTempC && tr.PeakC[0] < steady) {
		t.Fatalf("peak %v outside (ambient %v, steady %v)", tr.PeakC[0], platform.AmbientTempC, steady)
	}
	// Idle PEs stay at ambient.
	for pe := 1; pe < p.NumPEs(); pe++ {
		if tr.PeakC[pe] != platform.AmbientTempC {
			t.Fatalf("idle PE %d heated to %v", pe, tr.PeakC[pe])
		}
	}
}

func TestContinuousLoadApproachesSteadyState(t *testing.T) {
	// A task filling (nearly) the whole period drives temperature toward
	// its steady-state value given enough periods.
	b := taskgraph.NewBuilder("full", 50000)
	b.AddTask("t", 0, 1)
	g := b.MustBuild()
	p := platform.Default()
	dec := []schedule.TaskDecision{{
		PE:      0,
		Metrics: relmodel.Metrics{AvgExTimeUS: 49999, MinExTimeUS: 49999, PowerW: 2, MTTFHours: 1e5},
	}}
	res, err := schedule.Run(g, p, []int{0}, dec)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Simulate(g, p, dec, res, 20, 200)
	if err != nil {
		t.Fatal(err)
	}
	steady := p.PEs[0].Type.SteadyTempC(2)
	if math.Abs(tr.PeakC[0]-steady) > 1 {
		t.Fatalf("continuous load peaked at %v, want ≈ %v", tr.PeakC[0], steady)
	}
}

func TestZeroTimeConstantIsInstantaneous(t *testing.T) {
	g, p, dec, res := fixture(t, 5000, 2)
	for _, pt := range p.Types() {
		pt.ThermalTimeConstS = 0
	}
	tr, err := Simulate(g, p, dec, res, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	steady := p.PEs[0].Type.SteadyTempC(2)
	if math.Abs(tr.PeakC[0]-steady) > 1e-9 {
		t.Fatalf("instantaneous model peak %v, want steady %v", tr.PeakC[0], steady)
	}
}

func TestSimulateValidation(t *testing.T) {
	g, p, dec, res := fixture(t, 5000, 2)
	if _, err := Simulate(g, p, dec, res, 0, 100); err == nil {
		t.Error("zero periods accepted")
	}
	if _, err := Simulate(g, p, dec, res, 1, 0); err == nil {
		t.Error("zero time step accepted")
	}
	if _, err := Simulate(g, p, dec[:0], res, 1, 100); err == nil {
		t.Error("decision arity mismatch accepted")
	}
	// Schedule longer than the period must be rejected.
	long := *res
	long.MakespanUS = g.PeriodUS * 2
	if _, err := Simulate(g, p, dec, &long, 1, 100); err == nil {
		t.Error("overlong schedule accepted")
	}
}

func TestTraceShape(t *testing.T) {
	g, p, dec, res := fixture(t, 5000, 2)
	tr, err := Simulate(g, p, dec, res, 2, 500)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.TimeUS) < 3 {
		t.Fatal("too few samples")
	}
	for pe := range tr.TempC {
		if len(tr.TempC[pe]) != len(tr.TimeUS) {
			t.Fatal("ragged trace")
		}
	}
	// Periodicity: the temperature at the end of period 2 should be at
	// least that at the end of period 1 (warming toward the limit cycle).
	half := len(tr.TimeUS) / 2
	if tr.TempC[0][len(tr.TimeUS)-1] < tr.TempC[0][half]-1e-9 {
		t.Fatal("temperature not converging toward the limit cycle")
	}
}

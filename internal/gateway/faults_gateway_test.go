package gateway

import (
	"context"
	"net/http"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultmodel"
	"repro/internal/service"
)

// TestFaultModelSpecThroughFleet checks the fault-model fields survive the
// gateway round trip intact: the spec a worker receives on lease carries the
// model and checkpoint knobs it was submitted with, and the job completes
// through the real solver.
func TestFaultModelSpecThroughFleet(t *testing.T) {
	_, ts := newTestGateway(t, Config{WorkerToken: "wtok", ProbeEvery: -1})

	seen := make(chan *service.JobSpec, 1)
	startAgent(t, AgentConfig{
		Gateway: ts.URL, Token: "wtok", Name: "w0",
		Exec: func(ctx context.Context, s *service.JobSpec, progress func(core.ProgressEvent)) (*core.Front, error) {
			select {
			case seen <- s:
			default:
			}
			return service.Execute(ctx, s, progress)
		},
	})

	spec := service.JobSpec{
		App: "sobel", Method: "pfclr", Platform: "fpga", Catalog: "fpga",
		Pop: 16, Gens: 3, Seed: 21,
		Faults: &faultmodel.Model{
			Default: faultmodel.FaultModel{PermanentPerHour: 150, RepairProb: 0.5, RepairTimeUS: 60},
			PerType: map[string]faultmodel.FaultModel{
				"fpga-fabric": {TransientScale: 4, PermanentPerHour: 300, RepairProb: 0.7, RepairTimeUS: 90},
			},
		},
		CkptModes:     true,
		CkptIntervals: []int{1, 2},
	}
	jw, resp := submitSpec(t, ts, "key1", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", resp.StatusCode)
	}

	final := waitFor(t, ts, "key1", jw.ID, 60*time.Second, isDone)
	if final.Front == nil || len(final.Front.Points) == 0 {
		t.Fatal("fault-model fleet job returned no front")
	}

	var leased *service.JobSpec
	select {
	case leased = <-seen:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never reported the leased spec")
	}
	if leased.Platform != "fpga" || leased.Catalog != "fpga" {
		t.Fatalf("platform/catalog lost in transit: %q/%q", leased.Platform, leased.Catalog)
	}
	if leased.Faults == nil || leased.Faults.Default.PermanentPerHour != 150 {
		t.Fatalf("fault model lost in transit: %+v", leased.Faults)
	}
	if got := leased.Faults.For("fpga-fabric"); got.TransientScale != 4 || got.PermanentPerHour != 300 {
		t.Fatalf("per-type override lost in transit: %+v", got)
	}
	if !leased.CkptModes || len(leased.CkptIntervals) != 2 {
		t.Fatalf("checkpoint knobs lost in transit: %v %v", leased.CkptModes, leased.CkptIntervals)
	}
}

// TestFPGAFaultJobEndToEnd drives the whole fault-model path through the
// HTTP service: an FPGA-platform job with an active combined fault model
// and the checkpoint axis must complete deterministically and move the
// /metrics fault_model counters (process-wide totals, so assertions are
// deltas).
func TestFPGAFaultJobEndToEnd(t *testing.T) {
	before := faultmodel.Totals()
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 8, CacheCap: 8})

	spec := service.JobSpec{
		App:      "sobel",
		Method:   "pfclr",
		Platform: "fpga",
		Catalog:  "fpga",
		Pop:      16,
		Gens:     6,
		Seed:     5,
		Faults: &faultmodel.Model{
			Default: faultmodel.FaultModel{PermanentPerHour: 200, RepairProb: 0.6, RepairTimeUS: 80},
		},
		CkptModes: true,
	}
	jw, resp := submitSpec(t, ts, "", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d (%s)", resp.StatusCode, jw.Error)
	}
	final := waitFor(t, ts, "", jw.ID, 30*time.Second, terminal)
	if final.State != service.StateDone {
		t.Fatalf("job ended %s: %s", final.State, final.Error)
	}
	if final.Front == nil || len(final.Front.Points) == 0 {
		t.Fatal("FPGA fault-model job returned an empty front")
	}

	m := getMetrics(t, ts)
	if m.FaultModel.Evals <= before.Evals {
		t.Fatalf("fault-model evals did not advance: before %d, metrics %+v", before.Evals, m.FaultModel)
	}
	if m.FaultModel.PermChains <= before.PermChains {
		t.Fatalf("permanent-chain count did not advance: before %d, metrics %+v", before.PermChains, m.FaultModel)
	}
	if m.FaultModel.CheckpointPolicies <= before.CheckpointPolicies {
		t.Fatalf("checkpoint-policy count did not advance: before %d, metrics %+v",
			before.CheckpointPolicies, m.FaultModel)
	}

	// Same spec again: the result cache serves the finished job directly
	// (200, not 202) — the new fields participate in the cache key.
	jw2, resp := submitSpec(t, ts, "", spec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resubmit: status %d (%s), want a cache hit", resp.StatusCode, jw2.Error)
	}
	final2 := waitFor(t, ts, "", jw2.ID, 30*time.Second, terminal)
	if final2.State != service.StateDone {
		t.Fatalf("resubmitted job ended %s: %s", final2.State, final2.Error)
	}
	if len(final2.Front.Points) != len(final.Front.Points) {
		t.Fatalf("cached front has %d points, first run %d", len(final2.Front.Points), len(final.Front.Points))
	}
}

// TestFaultJobDeterministic pins the determinism contract on the new axes:
// two daemons running the same fault-model spec must return identical
// fronts.
func TestFaultJobDeterministic(t *testing.T) {
	spec := service.JobSpec{
		App:    "sobel",
		Method: "proposed",
		Pop:    16,
		Gens:   5,
		Seed:   9,
		Faults: &faultmodel.Model{
			Default: faultmodel.FaultModel{TransientScale: 8, IntermittentPerSec: 2, IntermittentBurst: 3},
		},
		CkptModes:     true,
		CkptIntervals: []int{1},
	}
	fronts := make([][]service.PointWire, 2)
	for i := range fronts {
		_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4, CacheCap: 4})
		jw, resp := submitSpec(t, ts, "", spec)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("run %d: submit status %d (%s)", i, resp.StatusCode, jw.Error)
		}
		final := waitFor(t, ts, "", jw.ID, 30*time.Second, terminal)
		if final.State != service.StateDone {
			t.Fatalf("run %d: ended %s: %s", i, final.State, final.Error)
		}
		fronts[i] = final.Front.Points
	}
	if len(fronts[0]) != len(fronts[1]) {
		t.Fatalf("front sizes differ: %d vs %d", len(fronts[0]), len(fronts[1]))
	}
	for i := range fronts[0] {
		a, b := fronts[0][i], fronts[1][i]
		if len(a.Objectives) != len(b.Objectives) {
			t.Fatalf("point %d: objective arity differs", i)
		}
		for j := range a.Objectives {
			if a.Objectives[j] != b.Objectives[j] {
				t.Fatalf("point %d objective %d: %v vs %v", i, j, a.Objectives[j], b.Objectives[j])
			}
		}
	}
}

package gateway

import (
	"net/http"
	"testing"

	"repro/internal/faultmodel"
	"repro/internal/service"
)

// TestEdgeRejectsBadSpecs: every spec the daemon rejects with 400 is a 400
// at the gateway's edge too, and none of them reaches the queue.
func TestEdgeRejectsBadSpecs(t *testing.T) {
	g, ts := newTestGateway(t, Config{ProbeEvery: -1})
	for i, spec := range []service.JobSpec{
		{Method: "bogus"},
		{App: "bogus"},
		{GraphText: "not a task graph"},
		{Objectives: []string{"makespan"}},
		{App: "synthetic", Tasks: service.MaxSyntheticTasks + 1},
		{Method: "pfclr", Faults: saturatingFaults()},
		{Method: "fcclr", Faults: saturatingFaults()},
	} {
		if _, resp := submitSpec(t, ts, "key1", spec); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %d, want 400", i, resp.StatusCode)
		}
	}
	if j := g.queue.pop(); j != nil {
		t.Fatalf("a rejected spec was queued: %+v", j.Spec)
	}
}

// TestAdmissionDoesNoChainWork: admitting a job, new or attached, does no
// task-level DSE and solves no reliability chain at the gateway; the agent
// that runs a miss builds the library. Not parallel: the counter is
// process-wide.
func TestAdmissionDoesNoChainWork(t *testing.T) {
	_, ts := newTestGateway(t, Config{ProbeEvery: -1})
	specs := []service.JobSpec{
		{App: "synthetic", Tasks: 16, Method: "proposed", Pop: 24, Gens: 10, Seed: 3},
		{App: "synthetic", Tasks: 10, Method: "pfclr", Platform: "fpga", Catalog: "fpga", CkptModes: true,
			Faults: &faultmodel.Model{Default: faultmodel.FaultModel{PermanentPerHour: 100, RepairProb: 0.7, RepairTimeUS: 100}}},
	}
	before := chainSolves()
	for _, spec := range specs {
		for _, want := range []string{"new", "attached"} {
			if _, resp := submitSpec(t, ts, "key1", spec); resp.StatusCode != http.StatusAccepted {
				t.Fatalf("%s submit = %d, want 202", want, resp.StatusCode)
			}
		}
	}
	if n := chainSolves() - before; n != 0 {
		t.Fatalf("admission solved %d reliability chains, want 0", n)
	}
}

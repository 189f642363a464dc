package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/store"
)

// TestRecoverDaemonStore: a store written by the standalone daemon before
// it ran a gateway (a bare JobSpec journaled under j… IDs) recovers under
// the daemon's one tenant with its IDs: a done job keeps its front, a
// pending job resumes and finishes, and a pending job can be cancelled.
func TestRecoverDaemonStore(t *testing.T) {
	specs := []service.JobSpec{
		{App: "sobel", Method: "fcclr", Pop: 8, Gens: 2, Seed: 61},      // j000001, done
		{App: "sobel", Method: "fcclr", Pop: 8, Gens: 2, Seed: 62},      // j000002, pending
		{App: "sobel", Method: "fcclr", Pop: 16, Gens: 50000, Seed: 63}, // j000003, pending
	}
	fronts := make([][]byte, 2)
	dir := t.TempDir()
	st := openStore(t, dir)
	now := time.Now()
	for i := range specs {
		spec := &specs[i]
		if err := spec.Normalize(); err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		id := fmt.Sprintf("j%06d", i+1)
		if err := st.AcceptJob(id, spec.Hash(), raw, now); err != nil {
			t.Fatal(err)
		}
		if i < len(fronts) {
			front, err := service.Execute(context.Background(), spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			fronts[i] = marshalFront(t, service.FrontToWire(front))
		}
	}
	if err := st.FinishJob("j000001", service.StateDone, specs[0].Hash(), "", false, fronts[0], now); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st = openStore(t, dir)
	t.Cleanup(func() { st.Close() })
	g := newDaemon(t, Config{Store: st})
	ts := httptest.NewServer(g)
	t.Cleanup(func() { ts.Close(); g.Close() })

	if jw := getWire(t, ts, "", "/v1/jobs/j000001"); jw.State != service.StateDone || !bytes.Equal(marshalFront(t, jw.Front), fronts[0]) {
		t.Fatalf("recovered done job is %s with front %s", jw.State, marshalFront(t, jw.Front))
	}
	if jw := waitDone(t, ts, "", "j000002", 30*time.Second); !bytes.Equal(marshalFront(t, jw.Front), fronts[1]) {
		t.Fatal("resumed pending job's front differs from an uninterrupted run")
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/j000003", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel of a recovered job = %d, want 202", resp.StatusCode)
	}
	if jw := getWire(t, ts, "", "/v1/jobs/j000003/wait?timeout=10s"); jw.State != service.StateCancelled {
		t.Fatalf("cancelled recovered job is %s", jw.State)
	}
	// New jobs get the gateway's IDs.
	if jw, resp := submitSpec(t, ts, "", service.JobSpec{App: "sobel", Method: "fcclr", Pop: 8, Gens: 2, Seed: 64}); resp.StatusCode != http.StatusAccepted || jw.ID != "g000001" {
		t.Fatalf("new job = %d %q, want 202 g000001", resp.StatusCode, jw.ID)
	}
}

// TestJobTableBounded: every cached repeat is a new job record, but the
// table keeps at most store.DefaultMaxTerminalJobs ended ones, dropping
// the oldest (a GET of one answers 404), and lists at most as many.
func TestJobTableBounded(t *testing.T) {
	g, ts := newTestGateway(t, Config{
		Tenants:    []TenantConfig{{Name: "t1", Key: "key1", MaxActive: -1}},
		ProbeEvery: -1,
		Workers:    1,
	})
	spec := service.JobSpec{App: "sobel", Method: "fcclr", Pop: 8, Gens: 2, Seed: 71}
	first, _ := submitSpec(t, ts, "key1", spec)
	waitDone(t, ts, "key1", first.ID, 30*time.Second)
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	const repeats = 5000
	for i := 0; i < repeats; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
		req.Header.Set("X-API-Key", "key1")
		rec := httptest.NewRecorder()
		g.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("repeat %d = %d, want a 200 cache hit", i, rec.Code)
		}
	}
	records := 0
	for i := 1; i <= repeats+1; i++ {
		if _, ok := g.jobs.Get(fmt.Sprintf("g%06d", i)); ok {
			records++
		}
	}
	if records > store.DefaultMaxTerminalJobs {
		t.Fatalf("%d job records after %d cached repeats, want at most %d", records, repeats, store.DefaultMaxTerminalJobs)
	}
	if code, _ := get(t, ts, "/v1/jobs/"+first.ID); code != http.StatusNotFound {
		t.Fatalf("GET of the evicted first job = %d, want 404", code)
	}
	if jw := getWire(t, ts, "key1", fmt.Sprintf("/v1/jobs/g%06d", repeats+1)); !jw.Cached {
		t.Fatal("the newest repeat is not a cached job")
	}
	_, blob := get(t, ts, "/v1/jobs")
	var list struct{ Jobs []service.JobWire }
	if err := json.Unmarshal(blob, &list); err != nil {
		t.Fatal(err)
	}
	if n := len(list.Jobs); n == 0 || n > store.DefaultMaxTerminalJobs {
		t.Fatalf("GET /v1/jobs lists %d jobs, want 1..%d", n, store.DefaultMaxTerminalJobs)
	}
}

// TestEngineBlocksOnlyInProcess: the engine counter blocks are in
// /metrics only when the gateway runs agents in process; a gateway that
// runs no engine does not report engine counters as zero.
func TestEngineBlocksOnlyInProcess(t *testing.T) {
	for _, workers := range []int{0, 1} {
		_, ts := newTestGateway(t, Config{ProbeEvery: -1, Workers: workers})
		_, blob := get(t, ts, "/metrics")
		var m map[string]json.RawMessage
		if err := json.Unmarshal(blob, &m); err != nil {
			t.Fatal(err)
		}
		for _, block := range []string{"eval_accel", "selection", "fault_model"} {
			if _, ok := m[block]; ok != (workers > 0) {
				t.Errorf("Workers %d: /metrics has %q = %t", workers, block, ok)
			}
		}
	}
}

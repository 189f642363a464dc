package gateway

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
)

// workerPost sends one worker-token request to the lease API.
func workerPost(t *testing.T, ts *httptest.Server, path, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer wtok")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// leaseJob long-polls for one grant, failing the test when none arrives.
func leaseJob(t *testing.T, ts *httptest.Server, worker string) *LeaseGrant {
	t.Helper()
	code, body := workerPost(t, ts, "/v1/lease", `{"worker":"`+worker+`","timeout":"2s"}`)
	if code != http.StatusOK {
		t.Fatalf("lease for %s = %d, want 200", worker, code)
	}
	var grant LeaseGrant
	if err := json.Unmarshal(body, &grant); err != nil {
		t.Fatal(err)
	}
	return &grant
}

// TestRejectedCompletionKeepsLease posts invalid completions for a leased
// job. Each must be refused without consuming the lease, so the job comes
// back through lease expiry instead of staying running with no lease, and
// its tenant slot is released once a valid completion lands.
func TestRejectedCompletionKeepsLease(t *testing.T) {
	g, ts := newTestGateway(t, Config{WorkerToken: "wtok", LeaseTTL: 50 * time.Millisecond, ProbeEvery: -1})
	jw, resp := submitSpec(t, ts, "key1", service.JobSpec{App: "sobel", Method: "fcclr", Pop: 8, Gens: 2, Seed: 5})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", resp.StatusCode)
	}
	first := leaseJob(t, ts, "w0")
	for _, body := range []string{`{"state":"done"}`, `{"state":"finished"}`, `not json`} {
		code, _ := workerPost(t, ts, "/v1/lease/"+first.LeaseID+"/complete", body)
		if code != http.StatusBadRequest {
			t.Fatalf("completion %s = %d, want 400", body, code)
		}
	}

	// The lease was never consumed, so expiry redelivers the job.
	again := leaseJob(t, ts, "w1")
	if again.JobID != jw.ID || again.Delivery != 2 {
		t.Fatalf("redelivery = job %s delivery %d, want job %s delivery 2", again.JobID, again.Delivery, jw.ID)
	}
	front, _ := json.Marshal(CompleteRequest{State: service.StateDone, Front: &service.FrontWire{Evaluations: 1}})
	if code, body := workerPost(t, ts, "/v1/lease/"+again.LeaseID+"/complete", string(front)); code != http.StatusOK {
		t.Fatalf("valid completion = %d: %s", code, bytes.TrimSpace(body))
	}
	if got := getWire(t, ts, "key1", "/v1/jobs/"+jw.ID); got.State != service.StateDone {
		t.Fatalf("state = %q, want done", got.State)
	}
	if n := g.byName["t1"].activeNow(); n != 0 {
		t.Fatalf("tenant holds %d active slots after completion, want 0", n)
	}
}

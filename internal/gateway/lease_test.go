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

// TestSilentWorkerForgotten polls once as one worker and keeps polling as
// another, with long-polls that outlast forgetAfterTTLs lease lifetimes:
// the silent worker's record leaves /metrics and the probe targets, while
// the polling worker keeps its record throughout.
func TestSilentWorkerForgotten(t *testing.T) {
	g, ts := newTestGateway(t, Config{WorkerToken: "wtok", LeaseTTL: 50 * time.Millisecond, ProbeEvery: -1})
	poll := func(worker, timeout string) {
		body := `{"worker":"` + worker + `","addr":"http://` + worker + `.invalid:1","timeout":"` + timeout + `"}`
		if code, _ := workerPost(t, ts, "/v1/lease", body); code != http.StatusNoContent {
			t.Fatalf("idle poll for %s = %d, want 204", worker, code)
		}
	}
	listed := func() map[string]bool {
		_, blob := get(t, ts, "/metrics")
		var m MetricsWire
		if err := json.Unmarshal(blob, &m); err != nil {
			t.Fatal(err)
		}
		names := make(map[string]bool)
		for _, w := range m.Workers {
			names[w.Name] = true
		}
		return names
	}
	record := func(name string) *workerInfo {
		g.mu.Lock()
		defer g.mu.Unlock()
		return g.workers[name]
	}
	poll("gone", "5ms")
	poll("live", "5ms")
	if names := listed(); !names["gone"] || !names["live"] {
		t.Fatalf("/metrics workers = %v, want gone and live", names)
	}
	live := record("live")
	deadline := time.Now().Add(10 * time.Second)
	for listed()["gone"] {
		if time.Now().After(deadline) {
			t.Fatal("the silent worker's record was never dropped")
		}
		poll("live", "300ms") // longer than forgetAfterTTLs × LeaseTTL
	}
	if !listed()["live"] || record("live") != live {
		t.Fatal("the polling worker's record was dropped")
	}
	targets := g.probeTargets()
	if _, ok := targets["gone"]; ok {
		t.Fatal("the silent worker is still a probe target")
	}
	if _, ok := targets["live"]; !ok {
		t.Fatal("the polling worker is not a probe target")
	}
}

func TestNormalizeURL(t *testing.T) {
	cases := map[string]string{
		"localhost:8080":          "http://localhost:8080",
		" http://a:1/ ":           "http://a:1",
		"https://b.example":       "https://b.example",
		"":                        "",
		"  ":                      "",
		"http://c.example/base//": "http://c.example/base",
	}
	for in, want := range cases {
		if got := normalizeURL(in); got != want {
			t.Errorf("normalizeURL(%q) = %q, want %q", in, got, want)
		}
	}
}

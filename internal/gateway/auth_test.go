package gateway

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/service"
)

// TestAuthToken locks the API behind a bearer token and checks every
// combination of header against it; /healthz stays open so probes work.
// /metrics and the lease API are locked too, and a daemon started without
// a token still refuses leases: its agents present a random one.
func TestAuthToken(t *testing.T) {
	g := newDaemon(t, Config{Workers: 1}, "secret-token")
	ts := httptest.NewServer(RequireBearer("secret-token", g))
	t.Cleanup(func() { ts.Close(); g.Close() })

	cases := []struct {
		name   string
		header string
		want   int
	}{
		{"no header", "", http.StatusUnauthorized},
		{"wrong scheme", "Basic secret-token", http.StatusUnauthorized},
		{"wrong token", "Bearer wrong", http.StatusUnauthorized},
		{"token prefix", "Bearer secret", http.StatusUnauthorized},
		{"token with suffix", "Bearer secret-token-x", http.StatusUnauthorized},
		{"correct", "Bearer secret-token", http.StatusOK},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if code := call(t, http.MethodGet, ts.URL+"/v1/jobs", tc.header); code != tc.want {
				t.Fatalf("GET /v1/jobs with %q = %d, want %d", tc.header, code, tc.want)
			}
		})
	}

	_, ots := newTestServer(t, Config{Workers: 1})
	for _, c := range []struct {
		method, url string
		want        int
	}{
		// The liveness probe must not require credentials.
		{http.MethodGet, ts.URL + "/healthz", http.StatusOK},
		{http.MethodGet, ts.URL + "/metrics", http.StatusUnauthorized},
		{http.MethodPost, ts.URL + "/v1/lease", http.StatusUnauthorized},
		{http.MethodPost, ots.URL + "/v1/lease", http.StatusUnauthorized},
	} {
		if code := call(t, c.method, c.url, ""); code != c.want {
			t.Fatalf("%s %s without token = %d, want %d", c.method, c.url, code, c.want)
		}
	}
}

// call sends one request with an optional Authorization header and
// returns its status.
func call(t *testing.T, method, url, auth string) int {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(`{"worker":"intruder","timeout":"1ms"}`))
	if err != nil {
		t.Fatal(err)
	}
	if auth != "" {
		req.Header.Set("Authorization", auth)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestMaxBodyBytes rejects oversized submissions with 413 and leaves
// normal-sized ones unaffected.
func TestMaxBodyBytes(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxBodyBytes: 256})

	// A spec padded past the cap via a long graph_text. The decoder must
	// hit the byte limit before it can finish reading.
	big, err := json.Marshal(service.JobSpec{GraphText: strings.Repeat("x", 1024)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized spec = %d, want 413", resp.StatusCode)
	}

	if _, resp := submitSpec(t, ts, "", service.JobSpec{App: "sobel", Method: "fcclr", Pop: 8, Gens: 1, Seed: 1}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("small spec = %d, want 202", resp.StatusCode)
	}
}

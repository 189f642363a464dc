package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/service"
)

func TestParseSizes(t *testing.T) {
	got, err := parseSizes("10, 20,30")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 10 || got[2] != 30 {
		t.Fatalf("parseSizes = %v", got)
	}
	if _, err := parseSizes("10,x"); err == nil {
		t.Error("non-numeric size accepted")
	}
	if _, err := parseSizes("0"); err == nil {
		t.Error("zero size accepted")
	}
}

func TestRunSingleExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-quick", "-run", "fig6a"}, &buf, io.Discard); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "== fig6a") || !strings.Contains(out, "Fig. 6(a)") {
		t.Fatalf("unexpected output:\n%s", out)
	}
	if strings.Contains(out, "TABLE IV") {
		t.Fatal("unselected experiment ran")
	}
}

func TestRunMultipleExperiments(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-quick", "-run", "fig6b,table4", "-seed", "3"}, &buf, io.Discard); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Fig. 6(b)") || !strings.Contains(out, "TABLE IV") {
		t.Fatalf("missing selected experiments:\n%s", out)
	}
}

func TestRunTableWithCustomSizes(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-quick", "-run", "table6", "-sizes", "10", "-pop", "16", "-gens", "6"}, &buf, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "TABLE VI") {
		t.Fatal("missing TABLE VI output")
	}
}

func TestRunWithJobs(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-quick", "-run", "fig9", "-jobs", "4"}, &buf, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Fig. 9") {
		t.Fatal("missing Fig. 9 output")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-run", "fig99"}, &buf, io.Discard); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunBadSizes(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-sizes", "abc"}, &buf, io.Discard); err == nil {
		t.Fatal("bad sizes accepted")
	}
}

// startAgent runs a gateway agent named name against the gateway at url
// until the test ends; exec nil runs specs with service.Execute.
func startAgent(t *testing.T, url, name string, exec gateway.ExecFunc) *gateway.Agent {
	t.Helper()
	a, err := gateway.NewAgent(gateway.AgentConfig{
		Gateway: url, Name: name, PollTimeout: 100 * time.Millisecond, Exec: exec,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); a.Run(ctx) }()
	t.Cleanup(func() { cancel(); <-done })
	return a
}

// TestDistributedRunMatchesLocalGolden pins the remote-sweep guarantee end
// to end: the full CLI output of a -remote -quick sweep through an
// in-process gateway with two agents — one of which is killed while it
// holds its first lease, and replaced under the same name 3 s later — is
// byte-identical to the purely local -jobs 4 run of the same arguments.
// Every cell must run remotely: the killed lease expires and is
// redelivered, so a local fallback cannot make the test pass.
func TestDistributedRunMatchesLocalGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed golden test runs the sweep twice")
	}
	args := []string{"-quick", "-timing=false", "-seed", "7",
		"-run", "fig7,table5,fig8", "-sizes", "10,12", "-jobs", "4"}

	var local bytes.Buffer
	if err := run(args, &local, io.Discard); err != nil {
		t.Fatal(err)
	}

	g, err := gateway.New(gateway.Config{
		Tenants:  []gateway.TenantConfig{{Name: "test", Key: "test-key"}},
		LeaseTTL: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(g)
	t.Cleanup(func() { srv.Close(); g.Close() })

	startAgent(t, srv.URL, "w0", nil)
	leased := make(chan struct{})
	var once sync.Once
	doomed := startAgent(t, srv.URL, "w1", func(ctx context.Context, _ *service.JobSpec, _ func(core.ProgressEvent)) (*core.Front, error) {
		once.Do(func() { close(leased) })
		<-ctx.Done()
		return nil, ctx.Err()
	})

	var remote, stderr bytes.Buffer
	remoteURL := strings.Replace(srv.URL, "://", "://test-key@", 1)
	runErr := make(chan error, 1)
	go func() { runErr <- run(append(args, "-remote", remoteURL), &remote, &stderr) }()
	select {
	case <-leased:
	case err := <-runErr:
		t.Fatalf("sweep ended before w1 leased a job (err %v)", err)
	}
	doomed.Kill()
	select {
	case err = <-runErr:
	case <-time.After(3 * time.Second):
		startAgent(t, srv.URL, "w1", nil)
		err = <-runErr
	}
	if err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(local.Bytes(), remote.Bytes()) {
		t.Fatalf("remote output differs from local run:\n--- local ---\n%s\n--- remote ---\n%s",
			local.Bytes(), remote.Bytes())
	}
	if !regexp.MustCompile(`(?m)^remote: [1-9][0-9]* cells remote, 0 local fallback$`).Match(stderr.Bytes()) {
		t.Fatalf("cells fell back to local or never ran remotely; stderr:\n%s", stderr.Bytes())
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m gateway.MetricsWire
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Leases.Expired < 1 {
		t.Fatalf("leases.expired = %d: the killed lease holder's job was never redelivered", m.Leases.Expired)
	}
}

func TestRunJSONExport(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/results.json"
	var buf bytes.Buffer
	if err := run([]string{"-quick", "-run", "table4", "-json", path}, &buf, io.Discard); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if _, ok := decoded["table4"]; !ok {
		t.Fatal("JSON missing table4 result")
	}
}

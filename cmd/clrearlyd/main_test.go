package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/gateway"
	"repro/internal/service"
)

// The crash-injection harness re-executes the test binary as a real daemon
// process (the classic helper-process pattern): TestHelperDaemon is not a
// test but the daemon's main, entered only when the guard variable is set.
const helperEnv = "CLREARLYD_TEST_HELPER"

func TestHelperDaemon(t *testing.T) {
	if os.Getenv(helperEnv) != "1" {
		t.Skip("helper process entry point, not a test")
	}
	// Everything after "--" in the test invocation are daemon flags.
	args := os.Args
	for i, a := range args {
		if a == "--" {
			args = args[i+1:]
			break
		}
	}
	if err := run(args); err != nil {
		fmt.Fprintln(os.Stderr, "clrearlyd:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// daemon is one spawned clrearlyd helper process.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port, parsed from the startup log line
}

// startDaemon spawns the helper on an ephemeral port with the given store
// directory and extra flags, and waits for its "listening on" log line.
func startDaemon(t *testing.T, storeDir string, flags ...string) *daemon {
	t.Helper()
	args := append([]string{"-test.run=TestHelperDaemon", "--",
		"-addr", "127.0.0.1:0", "-workers", "1",
		"-store", storeDir, "-fsync", "interval", "-checkpoint-every", "2"}, flags...)
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), helperEnv+"=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd}
	t.Cleanup(func() {
		if d.cmd.Process != nil {
			d.cmd.Process.Kill()
			d.cmd.Wait()
		}
	})

	// The daemon logs "clrearlyd listening on 127.0.0.1:PORT (...)" once
	// the listener is bound; everything else on stderr is drained so the
	// child never blocks on a full pipe.
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 {
				rest := line[i+len("listening on "):]
				if j := strings.IndexByte(rest, ' '); j >= 0 {
					rest = rest[:j]
				}
				select {
				case addrc <- rest:
				default:
				}
			}
		}
		io.Copy(io.Discard, stderr)
	}()
	select {
	case addr := <-addrc:
		d.base = "http://" + addr
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never logged its listen address")
	}
	return d
}

// sigkill terminates the daemon the hard way and reaps it.
func (d *daemon) sigkill(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	d.cmd.Wait()
}

func (d *daemon) getJob(t *testing.T, id string) *service.JobWire {
	t.Helper()
	resp, err := http.Get(d.base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jw service.JobWire
	if err := json.NewDecoder(resp.Body).Decode(&jw); err != nil {
		t.Fatalf("decoding job %s: %v", id, err)
	}
	return &jw
}

// TestSIGKILLRecovery is the end-to-end crash test of the durable daemon:
// a real process is killed with SIGKILL mid-evolution, restarted on the
// same store, and must finish the interrupted job with a Pareto front
// byte-identical to an uninterrupted in-process run.
func TestSIGKILLRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real daemon processes")
	}
	// Large enough that SIGKILL lands mid-run (the GA clears hundreds of
	// sobel generations per second), small enough to finish promptly when
	// resumed.
	spec := service.JobSpec{App: "sobel", Method: "proposed", Pop: 16, Gens: 1200, Seed: 5}
	ref := spec
	if err := ref.Normalize(); err != nil {
		t.Fatal(err)
	}
	front, err := service.Execute(context.Background(), &ref, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(service.FrontToWire(front))
	if err != nil {
		t.Fatal(err)
	}

	storeDir := t.TempDir()
	d1 := startDaemon(t, storeDir)

	blob, _ := json.Marshal(spec)
	resp, err := http.Post(d1.base+"/v1/jobs", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	var jw service.JobWire
	if err := json.NewDecoder(resp.Body).Decode(&jw); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, jw.Error)
	}

	// Let the run get past a few durable checkpoints, then SIGKILL.
	deadline := time.Now().Add(60 * time.Second)
	for {
		got := d1.getJob(t, jw.ID)
		if got.State == service.StateDone {
			t.Fatal("job finished before SIGKILL — raise Gens")
		}
		if got.Progress != nil && got.Progress.Generation >= 6 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never progressed: %+v", got)
		}
		time.Sleep(5 * time.Millisecond)
	}
	d1.sigkill(t)

	// The restarted daemon recovers the journal, re-enqueues the job
	// under its original ID and resumes it from the last checkpoint.
	d2 := startDaemon(t, storeDir)
	deadline = time.Now().Add(120 * time.Second)
	var final *service.JobWire
	for {
		got := d2.getJob(t, jw.ID)
		if got.State == service.StateDone || got.State == service.StateFailed ||
			got.State == service.StateCancelled {
			final = got
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("resumed job never finished: %+v", got)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if final.State != service.StateDone {
		t.Fatalf("resumed job ended %s (%s)", final.State, final.Error)
	}
	if final.Cached {
		t.Fatal("resumed job was served from cache, not resumed")
	}
	got, err := json.Marshal(final.Front)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatal("front after SIGKILL recovery differs from uninterrupted run")
	}
}

// TestShutdownEndsEventStream holds an /events stream open on a job that
// cannot finish and sends the daemon SIGTERM: with -drain 5s it must end
// the stream and exit well within the drain deadline, which it used to
// spend in full waiting for the stream to end.
func TestShutdownEndsEventStream(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a real daemon process")
	}
	d := startDaemon(t, t.TempDir(), "-drain", "5s")
	blob, _ := json.Marshal(service.JobSpec{App: "sobel", Method: "fcclr", Pop: 16, Gens: 50000, Seed: 5})
	resp, err := http.Post(d.base+"/v1/jobs", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	var jw service.JobWire
	if err := json.NewDecoder(resp.Body).Decode(&jw); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	stream, err := http.Get(d.base + "/v1/jobs/" + jw.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	sc := bufio.NewScanner(stream.Body)
	if !sc.Scan() || sc.Text() != "event: status" {
		t.Fatalf("stream opened with %q, want its status event", sc.Text())
	}

	start := time.Now()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- d.cmd.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("daemon exited with %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon still running 10 s after SIGTERM")
	}
	if took := time.Since(start); took > 2500*time.Millisecond {
		t.Fatalf("daemon took %v to exit with -drain 5s and one open stream", took)
	}
	for sc.Scan() {
	}
}

// call sends one request to the daemon with the given header, returning
// the status and the body.
func call(t *testing.T, method, url, header, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if k, v, ok := strings.Cut(header, ": "); ok {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, blob
}

// writeTenants writes a one-tenant table (key "acme-key") and returns
// its path.
func writeTenants(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tenants.json")
	if err := os.WriteFile(path, []byte(`{"tenants": [{"name": "acme", "key": "acme-key"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestTenantsFrontDoor runs the daemon as a fleet front door: a tenant
// table, a worker token on the lease API only and no engine in process.
// Tenant keys reach the job API and nothing else, and a job waits in the
// queue until an external agent leases and finishes it.
func TestTenantsFrontDoor(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a real daemon process")
	}
	tenants := writeTenants(t)
	d := startDaemon(t, t.TempDir(), "-tenants", tenants, "-workers", "0", "-worker-token", "wtok")

	lease := `{"worker": "probe", "timeout": "10ms"}`
	if code, _ := call(t, "POST", d.base+"/v1/lease", "Authorization: Bearer acme-key", lease); code != http.StatusUnauthorized {
		t.Fatalf("lease with a tenant key: %d, want 401", code)
	}
	if code, _ := call(t, "POST", d.base+"/v1/lease", "Authorization: Bearer wtok", lease); code != http.StatusNoContent {
		t.Fatalf("lease with the worker token on an empty queue: %d, want 204", code)
	}

	spec := `{"app": "sobel", "method": "proposed", "pop": 16, "gens": 10, "seed": 1}`
	if code, _ := call(t, "POST", d.base+"/v1/jobs", "X-API-Key: nope", spec); code != http.StatusUnauthorized {
		t.Fatalf("submit with an unknown key: %d, want 401", code)
	}
	code, blob := call(t, "POST", d.base+"/v1/jobs", "X-API-Key: acme-key", spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit with a tenant key: %d %s", code, blob)
	}
	var jw service.JobWire
	if err := json.Unmarshal(blob, &jw); err != nil {
		t.Fatal(err)
	}

	_, blob = call(t, "GET", d.base+"/metrics", "", "")
	var metrics map[string]json.RawMessage
	if err := json.Unmarshal(blob, &metrics); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"eval_accel", "selection", "fault_model", "latency_ms"} {
		if _, ok := metrics[key]; ok {
			t.Errorf("/metrics of a front door without agents has %q", key)
		}
	}
	if _, ok := metrics["tenants"]; !ok {
		t.Error("/metrics has no tenants block")
	}

	wait := d.base + "/v1/jobs/" + jw.ID + "/wait?timeout="
	code, blob = call(t, "GET", wait+"300ms", "Authorization: Bearer acme-key", "")
	if code != http.StatusOK || json.Unmarshal(blob, &jw) != nil || jw.State != service.StateQueued {
		t.Fatalf("job without a worker: %d %s, want it queued", code, blob)
	}

	agent, err := gateway.NewAgent(gateway.AgentConfig{Gateway: d.base, Token: "wtok", Name: "ext"})
	if err != nil {
		t.Fatal(err)
	}
	go agent.Run(context.Background())
	defer agent.Stop()
	deadline := time.Now().Add(60 * time.Second)
	for jw.State == service.StateQueued || jw.State == service.StateRunning {
		if time.Now().After(deadline) {
			t.Fatalf("leased job never finished: %+v", jw)
		}
		_, blob = call(t, "GET", wait+"5s", "X-API-Key: acme-key", "")
		if err := json.Unmarshal(blob, &jw); err != nil {
			t.Fatalf("decoding %s: %v", blob, err)
		}
	}
	if jw.State != service.StateDone || jw.Front == nil {
		t.Fatalf("leased job ended %s (%s), front %v", jw.State, jw.Error, jw.Front != nil)
	}
}

// TestRejectsFlagConflicts checks the flag combinations that have no
// meaning. The listen address is unusable, so a run that let one through
// would fail later, with an error that names no flag, instead of serving.
func TestRejectsFlagConflicts(t *testing.T) {
	tenants := writeTenants(t)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-workers", "-1"}, "-workers"},
		{[]string{"-tenants", tenants, "-gateway", "http://127.0.0.1:1"}, "-tenants"},
	} {
		err := run(append([]string{"-addr", "no-such-address"}, tc.args...))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run %q: %v, want an error naming %s", tc.args, err, tc.want)
		}
	}
}

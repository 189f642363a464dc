package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/gateway"
	"repro/internal/service"
)

func small(extra ...string) []string {
	return append([]string{"-pop", "16", "-gens", "6"}, extra...)
}

func TestRunSobelProposed(t *testing.T) {
	var buf bytes.Buffer
	if err := run(small(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "proposed DSE of \"sobel\"") {
		t.Fatalf("unexpected header:\n%s", out)
	}
	if !strings.Contains(out, "design space: fcCLR") {
		t.Fatal("proposed run should report design-space sizes")
	}
	if !strings.Contains(out, "makespan(us)") {
		t.Fatal("missing metrics table")
	}
}

func TestRunSyntheticFcCLR(t *testing.T) {
	var buf bytes.Buffer
	if err := run(small("-app", "synthetic", "-tasks", "10", "-method", "fcclr"), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "10 tasks") {
		t.Fatal("missing task count in output")
	}
}

func TestRunPfCLRAndAgnostic(t *testing.T) {
	for _, method := range []string{"pfclr", "agnostic"} {
		var buf bytes.Buffer
		if err := run(small("-method", method), &buf); err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if !strings.Contains(buf.String(), "Pareto points") {
			t.Fatalf("%s: missing front summary", method)
		}
	}
}

func TestRunWithConstraint(t *testing.T) {
	var buf bytes.Buffer
	if err := run(small("-max-makespan", "2500", "-method", "fcclr"), &buf); err != nil {
		t.Fatal(err)
	}
	// All reported points must satisfy the constraint.
	for _, line := range strings.Split(buf.String(), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 5 || !strings.Contains(fields[0], ".") {
			continue
		}
		mk, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			continue
		}
		if mk > 2500 {
			t.Fatalf("front point violates makespan constraint: %s", line)
		}
	}
}

func TestRunErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run(small("-app", "bogus"), &buf); err == nil {
		t.Error("unknown app accepted")
	}
	if err := run(small("-method", "bogus"), &buf); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestRunExtendedCatalog(t *testing.T) {
	var buf bytes.Buffer
	if err := run(small("-catalog", "extended", "-method", "fcclr"), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Pareto points") {
		t.Fatal("missing front summary")
	}
	if err := run(small("-catalog", "bogus"), &buf); err == nil {
		t.Fatal("unknown catalog accepted")
	}
}

func TestRunCommAndMemoryFlags(t *testing.T) {
	var buf bytes.Buffer
	err := run(small("-method", "fcclr", "-comm-startup", "20", "-comm-per-kb", "2", "-memory"), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Pareto points") {
		t.Fatal("missing front summary")
	}
}

func TestRunGantt(t *testing.T) {
	var buf bytes.Buffer
	if err := run(small("-gantt"), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "schedule: makespan") {
		t.Fatal("Gantt chart missing")
	}
	if err := run(small("-gantt", "-method", "pfclr"), &buf); err == nil {
		t.Fatal("-gantt with pfclr should be rejected")
	}
}

func TestRunJPEG(t *testing.T) {
	var buf bytes.Buffer
	if err := run(small("-app", "jpeg", "-method", "fcclr"), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\"jpeg\" (9 tasks") {
		t.Fatalf("unexpected header:\n%s", buf.String())
	}
}

func TestRunGraphFile(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/app.tgff"
	src := "@TASK_GRAPH custom {\n" +
		"  PERIOD 50000\n" +
		"  TASK a\tTYPE 0\tCRITICALITY 1\n" +
		"  TASK b\tTYPE 1\tCRITICALITY 2\n" +
		"  TASK c\tTYPE 0\tCRITICALITY 1\n" +
		"  ARC a0\tFROM t0 TO t1\tDATA 8\n" +
		"  ARC a1\tFROM t1 TO t2\tDATA 8\n" +
		"}\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(small("-graph-file", path, "-method", "fcclr"), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\"custom\" (3 tasks") {
		t.Fatalf("custom graph not loaded:\n%s", buf.String())
	}
	if err := run(small("-graph-file", dir+"/missing.tgff"), &buf); err == nil {
		t.Fatal("missing graph file accepted")
	}
}

func TestRunJSONRoundTrip(t *testing.T) {
	// The -json output must be exactly the service wire form of the same
	// spec: decode the CLI's output, re-run the equivalent spec through
	// the service layer, and compare structs field for field. A re-encode
	// must also reproduce the decoded form byte for byte.
	var buf bytes.Buffer
	if err := run(small("-method", "fcclr", "-json"), &buf); err != nil {
		t.Fatal(err)
	}
	var got service.FrontWire
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("CLI -json output is not a wire front: %v\n%s", err, buf.String())
	}
	if len(got.Points) == 0 || got.Evaluations == 0 {
		t.Fatalf("empty front on the wire: %+v", got)
	}

	spec := service.JobSpec{App: "sobel", Method: "fcclr", Pop: 16, Gens: 6, Seed: 1}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	front, err := service.Execute(context.Background(), &spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := service.FrontToWire(front)
	if !reflect.DeepEqual(&got, want) {
		t.Fatalf("CLI -json front diverges from the service wire form:\ncli:  %+v\napi:  %+v", got, want)
	}

	re, err := json.Marshal(&got)
	if err != nil {
		t.Fatal(err)
	}
	var again service.FrontWire
	if err := json.Unmarshal(re, &again); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, again) {
		t.Fatal("wire front does not survive a JSON round trip")
	}
}

func TestRunFiveObjectives(t *testing.T) {
	var buf bytes.Buffer
	err := run(small("-method", "fcclr",
		"-objectives", "makespan,errprob,lifetime,energy,power"), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Pareto points") {
		t.Fatal("missing front summary")
	}
	if err := run(small("-objectives", "makespan"), &buf); err == nil {
		t.Fatal("single objective accepted")
	}
	if err := run(small("-objectives", "makespan,bogus"), &buf); err == nil {
		t.Fatal("unknown objective accepted")
	}
}

func TestRunFPGAFaultModel(t *testing.T) {
	faults := filepath.Join(t.TempDir(), "faults.json")
	if err := os.WriteFile(faults, []byte(`{
  "default": {"permanent_per_hour": 200, "repair_prob": 0.6, "repair_time_us": 80},
  "per_type": {"fpga-fabric": {"transient_scale": 3, "permanent_per_hour": 400, "repair_prob": 0.8}}
}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err := run(small("-method", "pfclr", "-platform", "fpga", "-catalog", "fpga",
		"-faults", faults, "-ckpt-modes", "-ckpt-intervals", "1,2"), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Pareto points") {
		t.Fatalf("missing front summary:\n%s", buf.String())
	}
}

func TestRunFaultFlagErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run(small("-platform", "asic"), &buf); err == nil {
		t.Error("unknown platform accepted")
	}
	if err := run(small("-faults", "/nonexistent/faults.json"), &buf); err == nil {
		t.Error("missing faults file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"default":{"transient_scale":-2}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(small("-faults", bad), &buf); err == nil {
		t.Error("invalid fault model accepted")
	}
	if err := run(small("-method", "pfclr", "-ckpt-modes", "-ckpt-intervals", "x"), &buf); err == nil {
		t.Error("malformed -ckpt-intervals accepted")
	}
}

// TestRunRemote sends the run to a daemon (a gateway with an in-process
// agent, as clrearlyd serves it) that requires a bearer token:
// with the key in the URL's userinfo the output equals the local run's,
// and with a wrong key the run ends in an error instead of running
// locally.
func TestRunRemote(t *testing.T) {
	gw, err := gateway.New(gateway.Config{
		Tenants:     []gateway.TenantConfig{{Name: "clrearlyd", Key: "k1", MaxActive: -1}},
		WorkerToken: "k1",
		Workers:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	svc := gateway.RequireBearer("k1", gw)
	srv := httptest.NewServer(svc)
	defer srv.Close()

	var local, remote bytes.Buffer
	if err := run(small(), &local); err != nil {
		t.Fatal(err)
	}
	keyed := strings.Replace(srv.URL, "://", "://k1@", 1)
	if err := run(small("-remote", keyed), &remote); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(local.Bytes(), remote.Bytes()) {
		t.Fatalf("remote output differs from local:\n--- local ---\n%s\n--- remote ---\n%s", local.Bytes(), remote.Bytes())
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/jobs", nil)
	req.Header.Set("Authorization", "Bearer k1")
	rec := httptest.NewRecorder()
	svc.ServeHTTP(rec, req)
	var list struct{ Jobs []service.JobWire }
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].State != service.StateDone {
		t.Fatalf("daemon jobs = %+v, want one done job (the run fell back to local)", list.Jobs)
	}

	wrong := strings.Replace(srv.URL, "://", "://wrong@", 1)
	var out bytes.Buffer
	err = run(small("-remote", wrong), &out)
	if err == nil || !strings.Contains(err.Error(), srv.URL) {
		t.Fatalf("wrong key: err = %v, want a 401 error naming %s", err, srv.URL)
	}
}

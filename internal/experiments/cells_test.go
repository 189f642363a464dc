package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/service"
)

// cellSpecs is a small mixed-method sweep of wire-form cells.
func cellSpecs(t *testing.T) []*service.JobSpec {
	t.Helper()
	var specs []*service.JobSpec
	for i, method := range []string{"fcclr", "pfclr", "proposed", "fcclr", "pfclr", "proposed"} {
		s := &service.JobSpec{App: "sobel", Method: method, Pop: 10, Gens: 3, Seed: int64(31 + i)}
		if err := s.Normalize(); err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}
	return specs
}

// specCells builds one cell per spec whose local closure runs the spec
// in-process, counting its calls, and whose front lands in out[i].
func specCells(specs []*service.JobSpec, out []*core.Front, calls *atomic.Int64) []cell {
	cells := make([]cell, len(specs))
	for i, spec := range specs {
		cells[i] = cell{
			spec: spec,
			local: func() (*core.Front, error) {
				calls.Add(1)
				return service.Execute(context.Background(), spec, nil)
			},
			store: func(f *core.Front) { out[i] = f },
		}
	}
	return cells
}

// wireBytes is the wire encoding of a front: equal bytes mean equal
// evaluation counts, point order, objectives and QoS, bit for bit.
func wireBytes(t *testing.T, f *core.Front) []byte {
	t.Helper()
	if f == nil {
		t.Fatal("nil front")
	}
	blob, err := json.Marshal(service.FrontToWire(f))
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestRunCellsWithoutClientRunsLocally: with no remote client configured,
// every cell runs its local closure exactly once, even when it has a
// spec, and stores the front a direct in-process run yields.
func TestRunCellsWithoutClientRunsLocally(t *testing.T) {
	specs := cellSpecs(t)
	got := make([]*core.Front, len(specs))
	var calls atomic.Int64
	c := Quick()
	c.Remote = nil
	if err := c.runCells(specCells(specs, got, &calls)); err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != int64(len(specs)) {
		t.Fatalf("local closures ran %d times, want %d", n, len(specs))
	}
	for i, spec := range specs {
		want, err := service.Execute(context.Background(), spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wireBytes(t, got[i]), wireBytes(t, want)) {
			t.Fatalf("cell %d (%s): stored front differs from the in-process run", i, spec.Method)
		}
	}
}

// TestRunCellsOrderIndependence: the same cells at very different
// concurrency store identical fronts in the same slots — completion order
// never leaks into results.
func TestRunCellsOrderIndependence(t *testing.T) {
	specs := cellSpecs(t)
	run := func(jobs int) []*core.Front {
		out := make([]*core.Front, len(specs))
		var calls atomic.Int64
		c := Quick()
		c.Jobs = jobs
		if err := c.runCells(specCells(specs, out, &calls)); err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		return out
	}
	seq, par := run(1), run(len(specs))
	for i, spec := range specs {
		if !bytes.Equal(wireBytes(t, seq[i]), wireBytes(t, par[i])) {
			t.Fatalf("cell %d (%s): front differs between -jobs 1 and -jobs %d", i, spec.Method, len(specs))
		}
	}
}

// TestNilSpecCellNeverLeavesTheProcess pins runCells' routing: with a
// client configured, a cell that has no wire form still runs locally and
// never reaches the server.
func TestNilSpecCellNeverLeavesTheProcess(t *testing.T) {
	var requests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		http.Error(w, "unexpected request", http.StatusInternalServerError)
	}))
	defer srv.Close()
	client, err := gateway.NewClient(srv.URL)
	if err != nil {
		t.Fatal(err)
	}

	want := &core.Front{Evaluations: 7}
	var got *core.Front
	c := Quick()
	c.Remote = client
	err = c.runCells([]cell{{
		local: func() (*core.Front, error) { return want, nil },
		store: func(f *core.Front) { got = f },
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("cell stored %v, want the local front", got)
	}
	if n := requests.Load(); n != 0 {
		t.Fatalf("a cell without a spec reached the server (%d requests)", n)
	}
	if remote, local := client.Counts(); remote+local != 0 {
		t.Fatalf("client counted %d remote, %d local; want none", remote, local)
	}
}

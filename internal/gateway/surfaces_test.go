package gateway

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/store"
)

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	name string
	data []byte
}

// get issues an authenticated GET and returns the status and body.
func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-API-Key", "key1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// readEvents consumes a job's SSE stream up to its terminal event, or to
// its end when the stream stops before one.
func readEvents(t *testing.T, ts *httptest.Server, key, id string) []sseEvent {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-API-Key", key)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != "text/event-stream" {
		t.Fatalf("events: status %d, Content-Type %q", resp.StatusCode, ct)
	}
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "" && cur.name != "":
			events = append(events, cur)
			if terminal(&service.JobWire{State: cur.name}) {
				return events
			}
			cur = sseEvent{}
		}
	}
	return events
}

// surface is one job-API server under test: a running instance, and a
// way to start a fresh one over a store with a one-front LRU.
type surface struct {
	name  string
	ts    *httptest.Server
	start func(st *store.Store) (ts *httptest.Server, stop func())
}

// openStore opens a store in dir with the fast fsync policy: the
// durability semantics under test (journaling, recovery, checkpoint
// resume) are identical across policies.
func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func marshalFront(t *testing.T, fw *service.FrontWire) []byte {
	t.Helper()
	b, err := json.Marshal(fw)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestJobAPISurfaces runs one table of job-API cases against a daemon (a
// gateway with an in-process agent) and a gateway fronting an agent over
// HTTP: both serve the same /wait and /events contract, and the same spec
// yields the same front bytes.
func TestJobAPISurfaces(t *testing.T) {
	daemon := newDaemon(t, Config{}, "")
	dts := httptest.NewServer(daemon)
	t.Cleanup(func() { dts.Close(); daemon.Close() })
	_, gts := newTestGateway(t, Config{ProbeEvery: -1})
	startAgent(t, AgentConfig{Gateway: gts.URL, Name: "w0"})

	finishedSpec := service.JobSpec{App: "sobel", Method: "fcclr", Pop: 8, Gens: 2, Seed: 41}
	runningSpec := service.JobSpec{App: "sobel", Method: "fcclr", Pop: 16, Gens: 30, Seed: 42}
	evictedSpec := service.JobSpec{App: "sobel", Method: "fcclr", Pop: 8, Gens: 2, Seed: 43}
	laterSpec := service.JobSpec{App: "sobel", Method: "fcclr", Pop: 8, Gens: 2, Seed: 44}

	cases := []struct {
		name string
		run  func(t *testing.T, s surface, finished string) []byte
	}{
		{"wait bad timeout", func(t *testing.T, s surface, finished string) []byte {
			if code, _ := get(t, s.ts, "/v1/jobs/"+finished+"/wait?timeout=soon"); code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", code)
			}
			return nil
		}},
		{"wait finished", func(t *testing.T, s surface, finished string) []byte {
			code, body := get(t, s.ts, "/v1/jobs/"+finished+"/wait?timeout=1s")
			var jw service.JobWire
			if err := json.Unmarshal(body, &jw); err != nil || code != http.StatusOK {
				t.Fatalf("status %d, decode %v", code, err)
			}
			if jw.State != service.StateDone || jw.Front == nil || len(jw.Front.Points) == 0 {
				t.Fatalf("wait answered %s without a front", jw.State)
			}
			front, _ := json.Marshal(jw.Front)
			return front
		}},
		{"events finished", func(t *testing.T, s surface, finished string) []byte {
			events := readEvents(t, s.ts, "key1", finished)
			if events[0].name != "status" {
				t.Fatalf("first event %q, want status", events[0].name)
			}
			last := events[len(events)-1]
			var jw service.JobWire
			if err := json.Unmarshal(last.data, &jw); err != nil {
				t.Fatal(err)
			}
			if last.name != service.StateDone || jw.State != last.name || jw.Front == nil {
				t.Fatalf("terminal event %q (state %q, front %v), want done with a front", last.name, jw.State, jw.Front != nil)
			}
			return nil
		}},
		{"events running", func(t *testing.T, s surface, _ string) []byte {
			jw, resp := submitSpec(t, s.ts, "key1", runningSpec)
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit = %d, want 202", resp.StatusCode)
			}
			events := readEvents(t, s.ts, "key1", jw.ID)
			progress := 0
			for _, e := range events[:len(events)-1] {
				if e.name == "progress" {
					progress++
				}
			}
			if last := events[len(events)-1].name; progress == 0 || last != service.StateDone {
				t.Fatalf("%d progress events, terminal %q; want ≥ 1 and done", progress, last)
			}
			return nil
		}},
		{"unknown id", func(t *testing.T, s surface, _ string) []byte {
			for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/wait", "/v1/jobs/nope/events"} {
				if code, _ := get(t, s.ts, path); code != http.StatusNotFound {
					t.Fatalf("%s: status %d, want 404", path, code)
				}
			}
			return nil
		}},
		{"restart keeps evicted fronts", func(t *testing.T, s surface, _ string) []byte {
			dir := t.TempDir()
			st := openStore(t, dir)
			ts, stop := s.start(st)
			var ids []string
			var fronts [][]byte
			for _, spec := range []service.JobSpec{evictedSpec, laterSpec} {
				jw, resp := submitSpec(t, ts, "key1", spec)
				if resp.StatusCode != http.StatusAccepted {
					t.Fatalf("submit = %d, want 202", resp.StatusCode)
				}
				done := waitFor(t, ts, "key1", jw.ID, 30*time.Second, isDone)
				ids = append(ids, jw.ID)
				fronts = append(fronts, marshalFront(t, done.Front))
			}
			// The LRU holds only the later front: the store answers.
			again, resp := submitSpec(t, ts, "key1", evictedSpec)
			if resp.StatusCode != http.StatusOK || !again.Cached || !bytes.Equal(marshalFront(t, again.Front), fronts[0]) {
				t.Fatalf("evicted repeat = %d cached=%t, want 200 cached with the first front", resp.StatusCode, again.Cached)
			}
			stop()
			st.Close()

			st = openStore(t, dir)
			defer st.Close()
			ts, stop = s.start(st)
			defer stop()
			code, body := get(t, ts, "/v1/jobs/"+ids[0])
			var jw service.JobWire
			if err := json.Unmarshal(body, &jw); err != nil || code != http.StatusOK {
				t.Fatalf("status %d, decode %v", code, err)
			}
			if jw.State != service.StateDone || jw.Front == nil || !bytes.Equal(marshalFront(t, jw.Front), fronts[0]) {
				t.Fatalf("recovered job %s is %s with front %s, want done with the first front", ids[0], jw.State, marshalFront(t, jw.Front))
			}
			return fronts[0]
		}},
	}

	outputs := make(map[string][]byte)
	for _, surface := range []surface{
		{"daemon", dts, func(st *store.Store) (*httptest.Server, func()) {
			d := newDaemon(t, Config{CacheCap: 1, Store: st}, "")
			ts := httptest.NewServer(d)
			return ts, func() { ts.Close(); d.Close() }
		}},
		{"gateway", gts, func(st *store.Store) (*httptest.Server, func()) {
			g, err := New(Config{Tenants: []TenantConfig{testTenant()}, CacheCap: 1, Store: st, ProbeEvery: -1})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(g)
			a, err := NewAgent(AgentConfig{Gateway: ts.URL, Name: "w1", PollTimeout: 100 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan struct{})
			go func() { defer close(done); a.Run(ctx) }()
			return ts, func() { cancel(); <-done; ts.Close(); g.Close() }
		}},
	} {
		jw, resp := submitSpec(t, surface.ts, "key1", finishedSpec)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: submit = %d, want 202", surface.name, resp.StatusCode)
		}
		waitFor(t, surface.ts, "key1", jw.ID, 30*time.Second, isDone)
		for _, c := range cases {
			t.Run(surface.name+"/"+c.name, func(t *testing.T) {
				if out := c.run(t, surface, jw.ID); out != nil {
					if prev, ok := outputs[c.name]; ok && !bytes.Equal(prev, out) {
						t.Fatalf("surfaces disagree:\n daemon %s\ngateway %s", prev, out)
					}
					outputs[c.name] = out
				}
			})
		}
	}
}

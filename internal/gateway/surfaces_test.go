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

// readEvents consumes a job's SSE stream up to its terminal event.
func readEvents(t *testing.T, ts *httptest.Server, id string) []sseEvent {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-API-Key", "key1")
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
			switch cur.name {
			case service.StateDone, service.StateFailed, service.StateCancelled:
				return events
			}
			cur = sseEvent{}
		}
	}
	t.Fatalf("events stream ended without a terminal event after %d events", len(events))
	return nil
}

// TestJobAPISurfaces runs one table of job-API cases against a daemon and
// a gateway fronting an in-process agent: both serve the same /wait and
// /events contract, and the same spec yields the same front bytes.
func TestJobAPISurfaces(t *testing.T) {
	daemon := service.New(service.Config{Workers: 1})
	dts := httptest.NewServer(daemon)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		_ = daemon.Shutdown(ctx)
		dts.Close()
	})
	_, gts := newTestGateway(t, Config{ProbeEvery: -1})
	startAgent(t, AgentConfig{Gateway: gts.URL, Name: "w0"})

	finishedSpec := service.JobSpec{App: "sobel", Method: "fcclr", Pop: 8, Gens: 2, Seed: 41}
	runningSpec := service.JobSpec{App: "sobel", Method: "fcclr", Pop: 16, Gens: 30, Seed: 42}

	cases := []struct {
		name string
		run  func(t *testing.T, ts *httptest.Server, finished string) []byte
	}{
		{"wait bad timeout", func(t *testing.T, ts *httptest.Server, finished string) []byte {
			if code, _ := get(t, ts, "/v1/jobs/"+finished+"/wait?timeout=soon"); code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", code)
			}
			return nil
		}},
		{"wait finished", func(t *testing.T, ts *httptest.Server, finished string) []byte {
			code, body := get(t, ts, "/v1/jobs/"+finished+"/wait?timeout=1s")
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
		{"events finished", func(t *testing.T, ts *httptest.Server, finished string) []byte {
			events := readEvents(t, ts, finished)
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
		{"events running", func(t *testing.T, ts *httptest.Server, _ string) []byte {
			jw, resp := submitSpec(t, ts, "key1", runningSpec)
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit = %d, want 202", resp.StatusCode)
			}
			events := readEvents(t, ts, jw.ID)
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
		{"unknown id", func(t *testing.T, ts *httptest.Server, _ string) []byte {
			for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/wait", "/v1/jobs/nope/events"} {
				if code, _ := get(t, ts, path); code != http.StatusNotFound {
					t.Fatalf("%s: status %d, want 404", path, code)
				}
			}
			return nil
		}},
	}

	outputs := make(map[string][]byte)
	for _, surface := range []struct {
		name string
		ts   *httptest.Server
	}{{"daemon", dts}, {"gateway", gts}} {
		jw, resp := submitSpec(t, surface.ts, "key1", finishedSpec)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: submit = %d, want 202", surface.name, resp.StatusCode)
		}
		waitDone(t, surface.ts, "key1", jw.ID, 30*time.Second)
		for _, c := range cases {
			t.Run(surface.name+"/"+c.name, func(t *testing.T) {
				if out := c.run(t, surface.ts, jw.ID); out != nil {
					if prev, ok := outputs[c.name]; ok && !bytes.Equal(prev, out) {
						t.Fatalf("surfaces disagree:\n daemon %s\ngateway %s", prev, out)
					}
					outputs[c.name] = out
				}
			})
		}
	}
}

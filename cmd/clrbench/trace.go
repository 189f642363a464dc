package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
)

// span is one timed call the benchmark made into a layer. Times are
// nanoseconds since the tracer started; Parent is 0 for a root span; Trace
// groups the spans of one job or request.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span of a traced run in memory until the run ends.
// A nil *tracer records nothing, so untraced runs pay one nil check per
// would-be span.
type tracer struct {
	origin time.Time

	mu    sync.Mutex
	spans []span
	// hookNS is the time spent inside the benchmark's own tracing hooks
	// while a job span was open: the overhead tracing adds to job time.
	hookNS int64
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// now is the current tracer clock, in nanoseconds.
func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// at converts a wall-clock instant to the tracer clock.
func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.origin)) }

// add records a finished span and returns its ID (0 on a nil tracer).
func (t *tracer) add(name string, parent int, trace, start, end int64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: start, End: end})
	return id
}

// open records a span whose end is not known yet; close sets it.
func (t *tracer) open(name string, parent int, trace, start int64) int {
	return t.add(name, parent, trace, start, start)
}

func (t *tracer) close(id int, end int64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

func (t *tracer) addHook(d time.Duration) {
	t.mu.Lock()
	t.hookNS += int64(d)
	t.mu.Unlock()
}

func (t *tracer) hookTotal() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.hookNS
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it covered by its children. Children of one
// span may overlap (the layer runs of the agnostic method are concurrent),
// so the covered part is the length of the union of the child intervals,
// clipped to the parent.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		covered := unionLength(children[s.ID], s.Start, s.End)
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// unionLength is the total length of the union of intervals, each clipped
// to [lo, hi].
func unionLength(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	iv = append([][2]int64(nil), iv...)
	sort.Slice(iv, func(i, k int) bool { return iv[i][0] < iv[k][0] })
	var total int64
	curS, curE := int64(0), int64(0)
	started := false
	for _, x := range iv {
		s, e := max(x[0], lo), min(x[1], hi)
		if e <= s {
			continue
		}
		switch {
		case !started:
			curS, curE, started = s, e, true
		case s <= curE:
			curE = max(curE, e)
		default:
			total += curE - curS
			curS, curE = s, e
		}
	}
	if started {
		total += curE - curS
	}
	return total
}

// write stores the spans and their per-name self times as one JSON file.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := make(map[string]float64)
	for name, d := range selfTimes(t.spans) {
		self[name] = d.Seconds()
	}
	blob, err := json.Marshal(struct {
		SelfTimeS map[string]float64 `json:"self_time_s"`
		Spans     []span             `json:"spans"`
	}{self, t.spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// stageTracker turns one job's RunConfig.Progress events into stage and
// generation spans under the job's ExecuteOn span. The events are the only
// stage boundaries the engine exposes: a stage is taken to start when the
// run started or when the most recent other stage finished its budget
// (stages run one after another, except the agnostic method's layer runs,
// which run side by side), and each generation spans the time since the
// stage's previous event.
type stageTracker struct {
	tr    *tracer
	trace int64
	exec  int
	begin int64

	mu       sync.Mutex
	stages   map[string]*stageState
	lastDone int64
	genMS    []float64
}

type stageState struct {
	span        int
	start, last int64
}

func newStageTracker(tr *tracer, trace int64, exec int, begin int64) *stageTracker {
	return &stageTracker{tr: tr, trace: trace, exec: exec, begin: begin, stages: make(map[string]*stageState)}
}

// progress is the RunConfig.Progress hook; the engine may call it from
// several goroutines at once.
func (st *stageTracker) progress(ev core.ProgressEvent) {
	t0 := time.Now()
	now := st.tr.now()
	st.mu.Lock()
	s := st.stages[ev.Stage]
	if s == nil {
		start := max(st.begin, st.lastDone)
		s = &stageState{span: st.tr.open("stage."+ev.Stage, st.exec, st.trace, start), start: start, last: start}
		st.stages[ev.Stage] = s
	}
	st.tr.add("generation", s.span, st.trace, s.last, now)
	st.genMS = append(st.genMS, float64(now-s.last)/1e6)
	s.last = now
	if ev.Generation >= ev.Generations {
		st.lastDone = now
	}
	st.mu.Unlock()
	st.tr.addHook(time.Since(t0))
}

// finish closes every stage span at its last event and returns the stage
// time per stage class and the generation durations in milliseconds.
func (st *stageTracker) finish() (map[string]float64, []float64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	stageS := make(map[string]float64)
	for name, s := range st.stages {
		st.tr.close(s.span, s.last)
		stageS[stageClass(name)] += float64(s.last-s.start) / 1e9
	}
	return stageS, st.genMS
}

// stageClass folds the engine's stage labels into the three stage metrics:
// the pfCLR and fcCLR stages, and the agnostic method's per-layer runs.
func stageClass(stage string) string {
	switch stage {
	case "pfclr", "fcclr":
		return stage
	default:
		return "layer"
	}
}

package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/store"
)

// entry is a surface's job type: a pointer to a struct that embeds *Job,
// so record is promoted from it.
type entry interface {
	comparable
	record() *Job
}

func (j *Job) record() *Job { return j }

// Route is how Table.Submit resolved a submission.
type Route int

const (
	Attached Route = iota // joined the identical job already in flight
	CacheHit              // answered from the LRU
	StoreHit              // answered from the store, and added to the LRU
	Queued                // a miss, enqueued and journaled
	Refused               // a miss the surface's enqueue refused
)

// Table is the job table of the gateway (internal/gateway), whether it
// fronts a fleet or runs its agents in process as clrearlyd: the jobs by
// ID and in submission order, the ID counter, the in-flight index by spec
// hash and the result tiers (the LRU, then the store). Runs are
// deterministic per normalized spec, which is what makes routing by hash
// sound. J is the surface's job type, which embeds *Job. Terminal records
// are capped at store.DefaultMaxTerminalJobs, the oldest ended dropped
// first; queued and running ones are never dropped. Lock order: the
// table's lock, then a job's, never the reverse.
type Table[J entry] struct {
	prefix string
	st     *store.Store
	encode func(J) ([]byte, error)

	mu     sync.Mutex
	jobs   map[string]J
	order  []J          // submission order, for listing
	ended  []J          // terminal jobs in the order they ended
	active map[string]J // queued or running jobs by spec hash
	cache  *FrontCache
	nextID int64
}

// NewTable makes an empty table whose job IDs are prefix plus a counter,
// with an LRU of cacheCap fronts over st (nil: no store). encode makes the
// payload st journals when it accepts a job.
func NewTable[J entry](prefix string, cacheCap int, st *store.Store, encode func(J) ([]byte, error)) *Table[J] {
	return &Table[J]{
		prefix: prefix,
		st:     st,
		encode: encode,
		jobs:   make(map[string]J),
		active: make(map[string]J),
		cache:  NewFrontCache(cacheCap),
	}
}

// Submit routes a validated submission by its spec hash: it attaches to
// an identical job in flight, else answers from the LRU, else from the
// store, else makes a new job with wrap and hands it to enqueue. A hit is
// a new job, done and cached at once. enqueue runs under the table's and
// the new job's locks, so it must not block or call back into the table;
// its error refuses the miss, leaving no ID and no index entry behind.
// The job's lock is held until its accept record is journaled, so no
// worker can finish the job before the store knows it (the store drops a
// finish for an unknown ID). A journaling error fails the new job and is
// returned with it.
//
// The returned wire is the job's status at submission, the reply the
// surface sends: a new job's is taken before its lock is released, so it
// reads queued (or failed) even if a worker starts the job at once; a
// hit's carries the front.
func (t *Table[J]) Submit(spec JobSpec, hash string, wrap func(*Job) J, enqueue func(J) error) (J, *JobWire, Route, error) {
	t.mu.Lock()
	if dup, ok := t.active[hash]; ok {
		t.mu.Unlock()
		return dup, dup.record().Wire(false), Attached, nil
	}
	route := CacheHit
	front, ok := t.cache.Get(hash)
	if !ok && t.st != nil {
		if payload, found := t.st.Result(hash); found {
			if front = decodeFront(payload); front != nil {
				route = StoreHit
				t.cache.Add(hash, front)
			}
		}
	}
	t.nextID++
	j := wrap(newJob(fmt.Sprintf("%s%06d", t.prefix, t.nextID), spec, hash, time.Now()))
	rec := j.record()
	if front != nil {
		// Done at its submission instant, without running.
		rec.State, rec.Cached, rec.Front, rec.Finished = StateDone, true, front, rec.Submitted
		close(rec.done)
		t.add(j)
		t.retire(j)
		t.mu.Unlock()
		// Best-effort: the front is already durable under its hash; the
		// record keeps GET /v1/jobs/{id} answering across a restart.
		_ = t.journalAccept(j)
		rec.Lock()
		rec.JournalLocked(t.st)
		w := rec.wireLocked(true)
		rec.Unlock()
		return j, w, route, nil
	}
	rec.Lock()
	if err := enqueue(j); err != nil {
		rec.Unlock()
		t.nextID--
		t.mu.Unlock()
		var zero J
		return zero, nil, Refused, err
	}
	t.add(j)
	t.active[hash] = j
	t.mu.Unlock()
	err := t.journalAccept(j)
	if err != nil {
		// Fail the job rather than acknowledge work that could vanish.
		err = fmt.Errorf("journaling job: %w", err)
		rec.FinishLocked(StateFailed, err.Error(), nil)
		rec.JournalLocked(t.st)
	}
	w := rec.wireLocked(false)
	rec.Unlock()
	if err != nil {
		t.mu.Lock()
		t.unindex(j)
		t.retire(j)
		t.mu.Unlock()
	}
	return j, w, Queued, err
}

func (t *Table[J]) journalAccept(j J) error {
	if t.st == nil {
		return nil
	}
	payload, err := t.encode(j)
	if err != nil {
		return err
	}
	rec := j.record()
	return t.st.AcceptJob(rec.ID, rec.Hash, payload, rec.Submitted)
}

// add publishes a new job; the caller holds t.mu.
func (t *Table[J]) add(j J) {
	t.jobs[j.record().ID] = j
	t.order = append(t.order, j)
}

// retire counts j, which just ended, against the cap on terminal records
// and drops the oldest ended records beyond it; the caller holds t.mu.
func (t *Table[J]) retire(j J) {
	t.ended = append(t.ended, j)
	for len(t.ended) > store.DefaultMaxTerminalJobs {
		old := t.ended[0]
		t.ended = t.ended[1:]
		delete(t.jobs, old.record().ID)
		if i := slices.Index(t.order, old); i >= 0 {
			t.order = slices.Delete(t.order, i, i+1)
		}
	}
}

// unindex drops j from the in-flight index; the caller holds t.mu.
func (t *Table[J]) unindex(j J) {
	if h := j.record().Hash; t.active[h] == j {
		delete(t.active, h)
	}
}

// Finish ends j unless it already ended, and reports whether it did. Its
// hash leaves the in-flight index and a computed front enters the LRU
// under the table's lock, and the journal follows the transition in the
// same hold of the job's lock: a client that sees the job done and
// resubmits is a cache hit, and by then the store holds the outcome.
func (t *Table[J]) Finish(j J, state, errMsg string, front *FrontWire) bool {
	return t.finish(j, state, errMsg, front, nil)
}

// Cancel ends j as cancelled, journaled, if it is still queued, and
// reports whether it did. A running job is left to its run, and stop is
// called under the job's lock to ask the run to end.
func (t *Table[J]) Cancel(j J, stop func(J)) bool {
	return t.finish(j, StateCancelled, "cancelled", nil, func(state string) bool {
		if state == StateRunning {
			stop(j)
		}
		return state == StateQueued
	})
}

// finish is Finish for a job whose current state, when may is non-nil,
// may must accept.
func (t *Table[J]) finish(j J, state, errMsg string, front *FrontWire, may func(string) bool) bool {
	rec := j.record()
	t.mu.Lock()
	rec.Lock()
	defer rec.Unlock()
	ended := (may == nil || may(rec.State)) && rec.FinishLocked(state, errMsg, front)
	if ended {
		t.unindex(j)
		t.retire(j)
		if front != nil {
			t.cache.Add(rec.Hash, front)
		}
	}
	t.mu.Unlock()
	if ended {
		rec.JournalLocked(t.st)
	}
	return ended
}

// Get returns the job with the given ID.
func (t *Table[J]) Get(id string) (J, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j, ok := t.jobs[id]
	return j, ok
}

// Jobs lists the newest jobs in submission order, at most as many as the
// cap on terminal records.
func (t *Table[J]) Jobs() []J {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.order[max(0, len(t.order)-store.DefaultMaxTerminalJobs):])
}

// CacheLen is the LRU's entry count.
func (t *Table[J]) CacheLen() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cache.Len()
}

// Recover rebuilds the table from its store before the surface serves:
// every journaled job under its ID in acceptance order, and the ID counter
// past the highest one. decode unpacks a surface's journal payload into
// the spec and the surface's job wrapper, or reports false. A terminal job
// keeps its outcome, a done one its front from the store's result. A
// pending job comes back queued and indexed, and is returned for the
// surface to enqueue, if its spec decodes as strictly as a submission; one
// that sets a removed field would run a different computation under its
// old hash, so it comes back failed, journaled with its checkpoint dropped.
func (t *Table[J]) Recover(decode func(json.RawMessage) (json.RawMessage, func(*Job) J, bool)) []J {
	if t.st == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var pending []J
	for _, jr := range t.st.Jobs() {
		raw, wrap, ok := decode(jr.Spec)
		var spec JobSpec
		if !ok || json.Unmarshal(raw, &spec) != nil {
			continue // journaled by another build; unusable but harmless
		}
		rec := newJob(jr.ID, spec, jr.Hash, jr.Submitted)
		j := wrap(rec)
		var n int64
		if _, err := fmt.Sscanf(jr.ID, t.prefix+"%d", &n); err == nil && n > t.nextID {
			t.nextID = n
		}
		t.add(j)
		if !jr.Pending() {
			rec.State, rec.Cached, rec.Error, rec.Finished = jr.State, jr.Cached, jr.Error, jr.Finished
			if payload, ok := t.st.Result(jr.Hash); ok && jr.State == StateDone {
				rec.Front = decodeFront(payload)
			}
			close(rec.done)
			t.retire(j)
		} else if err := decodeStrict(bytes.NewReader(raw), new(JobSpec)); err != nil {
			rec.Lock()
			rec.FinishLocked(StateFailed, "recovering stored spec: "+err.Error(), nil)
			rec.JournalLocked(t.st)
			rec.Unlock()
			t.retire(j)
		} else {
			t.active[jr.Hash] = j
			pending = append(pending, j)
		}
	}
	return pending
}

// decodeFront decodes a stored front, or returns nil.
func decodeFront(payload json.RawMessage) *FrontWire {
	var fw FrontWire
	if err := json.Unmarshal(payload, &fw); err != nil {
		return nil
	}
	return &fw
}

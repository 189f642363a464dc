package service

import (
	"bytes"
	"encoding/json"
	"sync"
	"time"

	"repro/internal/store"
)

// Job is the lifecycle record of one submitted run, shared by the daemon
// and the fleet gateway: identity, state, result, the latest progress
// snapshot and its SSE subscribers. Each surface embeds it and adds only
// what its execution model needs — the daemon a cancel func, the gateway
// lease and tenancy fields — and keeps those fields under the record's
// mutex, which guards every field below it.
type Job struct {
	ID   string
	Spec JobSpec
	Hash string

	sync.Mutex
	State     string
	Cached    bool
	Error     string
	Front     *FrontWire
	Progress  *ProgressWire
	Submitted time.Time
	Started   time.Time
	Finished  time.Time
	subs      map[chan ProgressWire]struct{}
	done      chan struct{} // closed on terminal state
}

// NewJob allocates a queued record.
func NewJob(id string, spec JobSpec, hash string, submitted time.Time) *Job {
	return &Job{
		ID:        id,
		Spec:      spec,
		Hash:      hash,
		State:     StateQueued,
		Submitted: submitted,
		subs:      make(map[chan ProgressWire]struct{}),
		done:      make(chan struct{}),
	}
}

// Wire snapshots the job's status; includeFront attaches the result of a
// finished job.
func (j *Job) Wire(includeFront bool) *JobWire {
	j.Lock()
	defer j.Unlock()
	w := &JobWire{
		ID:          j.ID,
		State:       j.State,
		Method:      j.Spec.Method,
		SpecHash:    j.Hash,
		Cached:      j.Cached,
		Error:       j.Error,
		SubmittedAt: j.Submitted,
	}
	if j.Progress != nil {
		p := *j.Progress
		w.Progress = &p
	}
	if !j.Started.IsZero() {
		t := j.Started
		w.StartedAt = &t
	}
	if !j.Finished.IsZero() {
		t := j.Finished
		w.FinishedAt = &t
	}
	if includeFront && j.State == StateDone {
		w.Front = j.Front
	}
	return w
}

// FinishLocked moves the job (whose lock the caller holds) to a terminal
// state: done jobs keep front, the others errMsg. It reports false, and
// changes nothing, when the job is already terminal.
func (j *Job) FinishLocked(state, errMsg string, front *FrontWire) bool {
	switch j.State {
	case StateDone, StateFailed, StateCancelled:
		return false
	}
	j.State = state
	if state == StateDone {
		j.Front = front
	} else {
		j.Error = errMsg
	}
	j.Finished = time.Now()
	close(j.done)
	return true
}

// FinishCached completes a job that was not yet published from the result
// cache: done at its submission instant, without running.
func (j *Job) FinishCached(front *FrontWire) {
	j.State, j.Cached, j.Front, j.Finished = StateDone, true, front, j.Submitted
	close(j.done)
}

// Publish records the latest generation report and fans it out to SSE
// subscribers. Slow subscribers drop events rather than stall the run.
func (j *Job) Publish(p ProgressWire) {
	j.Lock()
	defer j.Unlock()
	j.Progress = &p
	for sub := range j.subs {
		select {
		case sub <- p:
		default:
		}
	}
}

// JournalFinish records the job's terminal state in st (a no-op when st is
// nil): a front this job computed becomes the hash's persistent result,
// and the hash's run checkpoint, now obsolete, is dropped. Best-effort: a
// store error degrades durability, never the response. Called without the
// job's lock held.
func (j *Job) JournalFinish(st *store.Store) {
	j.Lock()
	defer j.Unlock()
	j.JournalLocked(st)
}

// JournalLocked is JournalFinish for a caller that holds the job's lock.
// Journaling a run's outcome in the same lock hold as its FinishLocked
// keeps every reader from seeing the job end before the store holds the
// outcome; the store never waits on a job, so the order cannot deadlock.
func (j *Job) JournalLocked(st *store.Store) {
	if st == nil {
		return
	}
	var payload json.RawMessage
	if j.State == StateDone && j.Front != nil && !j.Cached {
		payload, _ = json.Marshal(j.Front)
	}
	_ = st.FinishJob(j.ID, j.State, j.Hash, j.Error, j.Cached, payload, j.Finished)
	_ = st.ClearCheckpoint(j.Hash)
}

// RecoverJob rebuilds a journaled job from its store record and the spec
// journaled with it, or returns nil when raw does not decode as a spec.
// A terminal record keeps its recorded outcome, a done job taking its
// front from cache. A pending record comes back queued if its spec decodes
// as strictly as a submission. One that sets a field JobSpec no longer has
// would run a different computation under its old hash, and resume from a
// checkpoint that computation never wrote. It comes back failed instead,
// with the decoding error, journaled to st with its checkpoint dropped.
func RecoverJob(st *store.Store, jr *store.JobRecord, raw json.RawMessage, cache *FrontCache) *Job {
	var spec JobSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil
	}
	j := NewJob(jr.ID, spec, jr.Hash, jr.Submitted)
	if jr.Pending() {
		if err := decodeStrict(bytes.NewReader(raw), new(JobSpec)); err != nil {
			j.Lock()
			j.FinishLocked(StateFailed, "recovering stored spec: "+err.Error(), nil)
			j.JournalLocked(st)
			j.Unlock()
		}
		return j
	}
	j.State, j.Cached, j.Error, j.Finished = jr.State, jr.Cached, jr.Error, jr.Finished
	if jr.State == StateDone {
		j.Front, _ = cache.Get(jr.Hash)
	}
	close(j.done)
	return j
}

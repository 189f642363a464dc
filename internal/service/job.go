package service

import (
	"encoding/json"
	"sync"
	"time"

	"repro/internal/store"
)

// Job is the lifecycle record of one submitted run: identity, state,
// result, the latest progress snapshot and its SSE subscribers. The
// gateway's job embeds it, adds its lease and tenancy fields, and keeps
// them under the record's mutex, which guards every field below it.
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

// newJob allocates a queued record.
func newJob(id string, spec JobSpec, hash string, submitted time.Time) *Job {
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
	return j.wireLocked(includeFront)
}

// wireLocked is Wire for a caller that holds the job's lock.
func (j *Job) wireLocked(includeFront bool) *JobWire {
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

// JournalLocked records the terminal state of the job, whose lock the
// caller holds, in st (a no-op when st is nil): a front this job computed
// becomes the hash's persistent result, and the hash's now obsolete run
// checkpoint is dropped. Best-effort: a store error degrades durability,
// never the response. The store never waits on a job, so journaling under
// the job's lock cannot deadlock.
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

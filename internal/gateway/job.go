package gateway

import (
	"encoding/json"
	"sync"
	"time"

	"repro/internal/service"
	"repro/internal/store"
)

// job is the lifecycle record of one admitted run: identity and owner,
// state, result, the latest progress snapshot and its SSE subscribers,
// and what leases need. Only agents, remote or in process, run jobs,
// through leases: a job moves queued → running (leased to a worker) →
// done/failed/cancelled, with lease expiry pushing it back to queued
// until its delivery budget runs out.
type job struct {
	ID     string
	Spec   service.JobSpec
	Hash   string
	tenant *tenant
	class  int

	sync.Mutex // guards every field below
	State      string
	Cached     bool
	Error      string
	Front      *service.FrontWire
	Progress   *service.ProgressWire
	Submitted  time.Time
	Started    time.Time
	Finished   time.Time
	subs       map[chan service.ProgressWire]struct{}
	done       chan struct{} // closed on terminal state
	cancelReq  bool          // the tenant asked for cancellation while leased
	attempts   int           // lease deliveries so far
	worker     string        // current lease holder
}

// newJob allocates a queued record owned by t.
func newJob(id string, spec service.JobSpec, hash string, t *tenant, submitted time.Time) *job {
	return &job{
		ID:        id,
		Spec:      spec,
		Hash:      hash,
		tenant:    t,
		class:     t.class,
		State:     service.StateQueued,
		Submitted: submitted,
		subs:      make(map[chan service.ProgressWire]struct{}),
		done:      make(chan struct{}),
	}
}

// wire snapshots the job's status; includeFront attaches the result of a
// finished job.
func (j *job) wire(includeFront bool) *service.JobWire {
	j.Lock()
	defer j.Unlock()
	return j.wireLocked(includeFront)
}

// wireLocked is wire for a caller that holds the job's lock.
func (j *job) wireLocked(includeFront bool) *service.JobWire {
	w := &service.JobWire{
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
	if includeFront && j.State == service.StateDone {
		w.Front = j.Front
	}
	return w
}

// finishLocked moves the job (whose lock the caller holds) to a terminal
// state: done jobs keep front, the others errMsg. It reports false, and
// changes nothing, when the job is already terminal.
func (j *job) finishLocked(state, errMsg string, front *service.FrontWire) bool {
	switch j.State {
	case service.StateDone, service.StateFailed, service.StateCancelled:
		return false
	}
	j.State = state
	if state == service.StateDone {
		j.Front = front
	} else {
		j.Error = errMsg
	}
	j.Finished = time.Now()
	close(j.done)
	return true
}

// publish records the latest generation report and fans it out to SSE
// subscribers. Slow subscribers drop events rather than stall the run.
func (j *job) publish(p service.ProgressWire) {
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

// journalLocked records the terminal state of the job, whose lock the
// caller holds, in st (a no-op when st is nil): a front this job computed
// becomes the hash's persistent result, and the hash's now obsolete run
// checkpoint is dropped. Best-effort: a store error degrades durability,
// never the response. The store never waits on a job, so journaling under
// the job's lock cannot deadlock.
func (j *job) journalLocked(st *store.Store) {
	if st == nil {
		return
	}
	var payload json.RawMessage
	if j.State == service.StateDone && j.Front != nil && !j.Cached {
		payload, _ = json.Marshal(j.Front)
	}
	_ = st.FinishJob(j.ID, j.State, j.Hash, j.Error, j.Cached, payload, j.Finished)
	_ = st.ClearCheckpoint(j.Hash)
}

package gateway

import (
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/service"
	"repro/internal/store"
)

// idPrefix starts every job ID the gateway issues; a counter follows.
const idPrefix = "g"

// route is how jobTable.submit resolved a submission.
type route int

const (
	attached  route = iota // joined the identical job already in flight
	cacheHit               // answered from the LRU
	storeHit               // answered from the store, and added to the LRU
	enqueued               // a miss, enqueued and journaled
	overQuota              // a miss refused: its tenant is at its active-job quota
	queueFull              // a miss refused: the work queue is at capacity
)

// jobTable holds the gateway's jobs by ID and in submission order, the ID
// counter, the in-flight index by spec hash and the result tiers (the
// LRU, then the store), and admits misses to the work queue. Runs are
// deterministic per normalized spec, which is what makes routing by hash
// sound. Terminal records are capped at store.DefaultMaxTerminalJobs, the
// oldest ended dropped first; queued and running ones are never dropped.
// Lock order: the table's lock, then a job's, then the queue's or a
// tenant's; never the reverse.
type jobTable struct {
	st    *store.Store
	queue *workQueue

	mu     sync.Mutex
	jobs   map[string]*job
	order  []*job          // submission order, for listing
	ended  []*job          // terminal jobs in the order they ended
	active map[string]*job // queued or running jobs by spec hash
	cache  *frontCache
	nextID int64
}

// newJobTable makes an empty table that admits misses to q, with an LRU
// of cacheCap fronts over st (nil: no store).
func newJobTable(cacheCap int, st *store.Store, q *workQueue) *jobTable {
	return &jobTable{
		st:     st,
		queue:  q,
		jobs:   make(map[string]*job),
		active: make(map[string]*job),
		cache:  newFrontCache(cacheCap),
	}
}

// submit routes owner's validated submission by its spec hash: it
// attaches to an identical job in flight, else answers from the LRU, else
// from the store, else makes a new job, reserves one of owner's active
// slots for it and pushes it onto the queue. A hit is a new job, done and
// cached at once. A miss the quota or the queue refuses leaves no ID and
// no index entry behind. The new job's lock is held until its accept
// record is journaled, so no worker can finish the job before the store
// knows it (the store drops a finish for an unknown ID). A journaling
// error fails the new job and is returned with it.
//
// The returned wire is the job's status at submission, the reply to
// send: a new job's is taken before its lock is released, so it reads
// queued (or failed) even if a worker starts the job at once; a hit's
// carries the front.
func (t *jobTable) submit(owner *tenant, spec service.JobSpec, hash string) (*job, *service.JobWire, route, error) {
	t.mu.Lock()
	if dup, ok := t.active[hash]; ok {
		t.mu.Unlock()
		return dup, dup.wire(false), attached, nil
	}
	r := cacheHit
	front, ok := t.cache.get(hash)
	if !ok && t.st != nil {
		if payload, found := t.st.Result(hash); found {
			if front = decodeFront(payload); front != nil {
				r = storeHit
				t.cache.add(hash, front)
			}
		}
	}
	t.nextID++
	j := newJob(fmt.Sprintf("%s%06d", idPrefix, t.nextID), spec, hash, owner, time.Now())
	if front != nil {
		// Done at its submission instant, without running.
		j.State, j.Cached, j.Front, j.Finished = service.StateDone, true, front, j.Submitted
		close(j.done)
		t.add(j)
		t.retire(j)
		t.mu.Unlock()
		// Best-effort: the front is already durable under its hash; the
		// record keeps GET /v1/jobs/{id} answering across a restart.
		_ = t.journalAccept(j)
		j.Lock()
		j.journalLocked(t.st)
		w := j.wireLocked(true)
		j.Unlock()
		return j, w, r, nil
	}
	j.Lock()
	r = enqueued
	if !owner.reserveActive() {
		r = overQuota
	} else if !t.queue.push(j) {
		owner.releaseActive()
		r = queueFull
	}
	if r != enqueued {
		j.Unlock()
		t.nextID--
		t.mu.Unlock()
		return nil, nil, r, nil
	}
	t.add(j)
	t.active[hash] = j
	t.mu.Unlock()
	err := t.journalAccept(j)
	if err != nil {
		// Fail the job rather than acknowledge work that could vanish.
		err = fmt.Errorf("journaling job: %w", err)
		j.finishLocked(service.StateFailed, err.Error(), nil)
		j.journalLocked(t.st)
	}
	w := j.wireLocked(false)
	j.Unlock()
	if err != nil {
		t.mu.Lock()
		t.unindex(j)
		t.retire(j)
		t.mu.Unlock()
	}
	return j, w, enqueued, err
}

// storedJob is the journaled submission payload: the spec plus its owner,
// so recovery can restore tenant attribution.
type storedJob struct {
	Tenant string          `json:"tenant"`
	Spec   json.RawMessage `json:"spec"`
}

func (t *jobTable) journalAccept(j *job) error {
	if t.st == nil {
		return nil
	}
	spec, err := json.Marshal(&j.Spec)
	if err != nil {
		return err
	}
	payload, err := json.Marshal(storedJob{Tenant: j.tenant.cfg.Name, Spec: spec})
	if err != nil {
		return err
	}
	return t.st.AcceptJob(j.ID, j.Hash, payload, j.Submitted)
}

// add publishes a new job; the caller holds t.mu.
func (t *jobTable) add(j *job) {
	t.jobs[j.ID] = j
	t.order = append(t.order, j)
}

// retire counts j, which just ended, against the cap on terminal records
// and drops the oldest ended records beyond it; the caller holds t.mu.
func (t *jobTable) retire(j *job) {
	t.ended = append(t.ended, j)
	for len(t.ended) > store.DefaultMaxTerminalJobs {
		old := t.ended[0]
		t.ended = t.ended[1:]
		delete(t.jobs, old.ID)
		if i := slices.Index(t.order, old); i >= 0 {
			t.order = slices.Delete(t.order, i, i+1)
		}
	}
}

// unindex drops j from the in-flight index; the caller holds t.mu.
func (t *jobTable) unindex(j *job) {
	if t.active[j.Hash] == j {
		delete(t.active, j.Hash)
	}
}

// finish ends j unless it already ended, and reports whether it did. Its
// hash leaves the in-flight index and a computed front enters the LRU
// under the table's lock, and the journal follows the transition in the
// same hold of the job's lock: a client that sees the job done and
// resubmits is a cache hit, and by then the store holds the outcome.
func (t *jobTable) finish(j *job, state, errMsg string, front *service.FrontWire) bool {
	return t.end(j, state, errMsg, front, false)
}

// cancel ends j as cancelled, journaled and out of the queue, if it is
// still queued, and reports whether it did. A running job is left to its
// run, flagged so that its lease holder learns of the cancellation on its
// next progress report or renewal.
func (t *jobTable) cancel(j *job) bool {
	if !t.end(j, service.StateCancelled, "cancelled", nil, true) {
		return false
	}
	t.queue.remove(j)
	return true
}

// end is finish, or with onlyQueued cancel's transition.
func (t *jobTable) end(j *job, state, errMsg string, front *service.FrontWire, onlyQueued bool) bool {
	t.mu.Lock()
	j.Lock()
	defer j.Unlock()
	ended := false
	if onlyQueued && j.State == service.StateRunning {
		j.cancelReq = true
	} else if !onlyQueued || j.State == service.StateQueued {
		ended = j.finishLocked(state, errMsg, front)
	}
	if ended {
		t.unindex(j)
		t.retire(j)
		if front != nil {
			t.cache.add(j.Hash, front)
		}
	}
	t.mu.Unlock()
	if ended {
		j.journalLocked(t.st)
	}
	return ended
}

// get returns the job with the given ID, or nil.
func (t *jobTable) get(id string) *job {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.jobs[id]
}

// list returns the newest jobs in submission order, at most as many as
// the cap on terminal records.
func (t *jobTable) list() []*job {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.order[max(0, len(t.order)-store.DefaultMaxTerminalJobs):])
}

// cacheLen is the LRU's entry count.
func (t *jobTable) cacheLen() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cache.len()
}

// decodeFront decodes a stored front, or returns nil.
func decodeFront(payload json.RawMessage) *service.FrontWire {
	var fw service.FrontWire
	if err := json.Unmarshal(payload, &fw); err != nil {
		return nil
	}
	return &fw
}

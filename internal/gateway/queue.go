package gateway

import (
	"sync"

	"repro/internal/service"
)

// gwJob is the gateway-side state of one admitted job: the shared job
// record plus what leases and tenancy need. Only agents, remote or in
// process, execute jobs, through leases: a gwJob moves queued → running
// (leased to a worker) →
// done/failed/cancelled, with lease expiry pushing it back to queued until
// its delivery budget runs out.
type gwJob struct {
	*service.Job
	tenant *tenant
	class  int

	// Guarded by the Job's lock.
	cancelReq bool   // client asked for cancellation while leased
	attempts  int    // lease deliveries so far
	worker    string // current lease holder
}

// workQueue is the gateway's pending-job pool: one FIFO per priority
// class, drained by stride scheduling so classes share the workers in
// classWeights proportion. Lease long-pollers park on the wake channel,
// which is closed and replaced whenever work arrives.
type workQueue struct {
	mu      sync.Mutex
	classes [numClasses][]*gwJob
	served  [numClasses]int64 // dequeues per class, for stride scheduling
	cap     int               // live-depth bound; push beyond it fails
	wake    chan struct{}
}

func newWorkQueue(capacity int) *workQueue {
	return &workQueue{cap: capacity, wake: make(chan struct{})}
}

// push appends a job to its class FIFO, failing when the queue is at
// capacity (the caller translates that into 429 backpressure).
func (q *workQueue) push(j *gwJob) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.liveDepthLocked() >= q.cap {
		return false
	}
	q.classes[j.class] = append(q.classes[j.class], j)
	q.wakeLocked()
	return true
}

// pushForce appends a job regardless of capacity: the recovery backlog
// was admitted by a previous gateway incarnation and must all re-enter.
func (q *workQueue) pushForce(j *gwJob) {
	q.mu.Lock()
	q.classes[j.class] = append(q.classes[j.class], j)
	q.wakeLocked()
	q.mu.Unlock()
}

// pushFront re-enqueues a job at the head of its class (lease expired or
// worker died): retried work should not requeue behind fresh arrivals.
// Capacity is ignored — the job already holds its admission slot.
func (q *workQueue) pushFront(j *gwJob) {
	q.mu.Lock()
	q.classes[j.class] = append([]*gwJob{j}, q.classes[j.class]...)
	q.wakeLocked()
	q.mu.Unlock()
}

// pop removes and returns the next job by weighted-fair class order, or
// nil when every class is empty.
func (q *workQueue) pop() *gwJob {
	q.mu.Lock()
	defer q.mu.Unlock()
	c := -1
	var best int64
	for i := 0; i < numClasses; i++ {
		if len(q.classes[i]) == 0 {
			continue
		}
		// Stride scheduling: the next dequeue goes to the non-empty
		// class with the lowest virtual pass (served+1)/weight;
		// cross-multiplied to stay in integers, ties to higher priority.
		pass := (q.served[i] + 1) * (classWeights[0] * classWeights[1] * classWeights[2]) / classWeights[i]
		if c == -1 || pass < best {
			c, best = i, pass
		}
	}
	if c == -1 {
		return nil
	}
	j := q.classes[c][0]
	q.classes[c] = q.classes[c][1:]
	q.served[c]++
	return j
}

// remove deletes a cancelled job from its class FIFO so queue depth (and
// the backpressure threshold) reflect live work only. A lease that pops
// the job first skips it: the job is no longer queued.
func (q *workQueue) remove(j *gwJob) {
	q.mu.Lock()
	class := q.classes[j.class]
	for i, e := range class {
		if e == j {
			q.classes[j.class] = append(class[:i], class[i+1:]...)
			break
		}
	}
	q.mu.Unlock()
}

// awaitC returns a channel closed at the next enqueue; lease long-pollers
// select on it alongside their deadline.
func (q *workQueue) awaitC() <-chan struct{} {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.wake
}

func (q *workQueue) wakeLocked() {
	close(q.wake)
	q.wake = make(chan struct{})
}

func (q *workQueue) liveDepthLocked() int {
	n := 0
	for i := 0; i < numClasses; i++ {
		n += len(q.classes[i])
	}
	return n
}

// depths reports the per-class queue depths.
func (q *workQueue) depths() [numClasses]int {
	q.mu.Lock()
	defer q.mu.Unlock()
	var d [numClasses]int
	for i := 0; i < numClasses; i++ {
		d[i] = len(q.classes[i])
	}
	return d
}

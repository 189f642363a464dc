package service

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faultmodel"
	"repro/internal/store"
)

// Config sizes the job service.
type Config struct {
	// QueueCap bounds the number of jobs waiting to run (default 64);
	// submissions beyond it are rejected with 503.
	QueueCap int
	// Workers is the number of concurrent job runners (default 2). Each
	// running job's GA draws its fitness-evaluation workers from the
	// process-wide CPU-token pool (sweep.AcquireWorkers) at generation
	// granularity, so concurrent jobs divide the machine instead of
	// oversubscribing it; Workers therefore controls how many jobs make
	// progress at once, not how many CPUs are used.
	Workers int
	// CacheCap bounds the LRU result cache (default 128 fronts).
	CacheCap int
	// Store, when non-nil, makes the service durable: accepted specs and
	// terminal results are journaled, the results answer repeats the LRU
	// no longer holds, GA runs checkpoint every CheckpointEvery
	// generations, and New replays the store — finished jobs reappear,
	// and jobs that never reached a terminal state are re-enqueued
	// (resuming mid-evolution from their checkpoints).
	Store *store.Store
	// CheckpointEvery is the generation period of durable GA snapshots
	// (default core.DefaultCheckpointEvery; meaningful only with Store).
	CheckpointEvery int
	// AuthToken, when non-empty, locks the job API: every request except
	// GET /healthz must carry "Authorization: Bearer <AuthToken>". Workers
	// fronted by a gateway set it (clrearlyd -worker-token) so only the
	// fleet — which shares the token — can reach the daemon directly.
	AuthToken string
	// MaxBodyBytes caps the request body of POST /v1/jobs (default 1 MiB;
	// negative disables the cap). Oversized submissions get 413 before the
	// decoder buffers an unbounded spec.
	MaxBodyBytes int64
}

func (c Config) withDefaults() Config {
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.CacheCap <= 0 {
		c.CacheCap = 128
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 1 << 20
	}
	return c
}

// localJob is a job the daemon runs itself: the shared record plus the
// cancel func of its run, set while running under the record's lock.
type localJob struct {
	*Job
	cancel context.CancelFunc
}

func newLocalJob(j *Job) *localJob { return &localJob{Job: j} }

// Server is the DSE job service: a bounded FIFO queue drained by a fixed
// worker pool, a job Table (with its result tiers keyed by the canonical
// spec hash), and the HTTP API on top. Create with New, serve via
// http.Server, stop with Shutdown.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	jobs    *Table[*localJob]
	queue   chan *localJob
	baseCtx context.Context
	abort   context.CancelFunc // cancels all running jobs (forced shutdown)
	metrics *Metrics
	wg      sync.WaitGroup

	mu       sync.Mutex // guards draining and sends on queue
	draining bool
}

// New starts a job service with cfg's queue, worker-pool and cache sizes.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, abort := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		baseCtx: ctx,
		abort:   abort,
		metrics: newMetrics(),
		jobs: NewTable("j", cfg.CacheCap, cfg.Store, func(j *localJob) ([]byte, error) {
			return json.Marshal(&j.Spec)
		}),
	}
	// Recovery pass: replay the store before serving, and size the queue so
	// the whole recovered backlog fits alongside a full queue of new work.
	pending := s.jobs.Recover(func(raw json.RawMessage) (json.RawMessage, func(*Job) *localJob, bool) {
		return raw, newLocalJob, true
	})
	s.queue = make(chan *localJob, cfg.QueueCap+len(pending))
	for _, j := range pending {
		s.queue <- j
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	s.mux.HandleFunc("GET /v1/jobs/{id}/wait", s.handleWait)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /healthz", HandleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// ServeHTTP implements http.Handler. With an AuthToken configured, every
// endpoint except the liveness probe requires the bearer token.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.cfg.AuthToken != "" && r.URL.Path != "/healthz" {
		if !CheckBearer(r, s.cfg.AuthToken) {
			HTTPError(w, http.StatusUnauthorized, "missing or invalid bearer token")
			return
		}
	}
	s.mux.ServeHTTP(w, r)
}

// CheckBearer reports whether r carries "Authorization: Bearer <token>".
// The comparison is constant-time so the API key cannot be guessed
// byte-by-byte from response timing.
func CheckBearer(r *http.Request, token string) bool {
	h := r.Header.Get("Authorization")
	const prefix = "Bearer "
	if len(h) <= len(prefix) || h[:len(prefix)] != prefix {
		return false
	}
	return subtle.ConstantTimeCompare([]byte(h[len(prefix):]), []byte(token)) == 1
}

// Shutdown stops the service gracefully: new submissions are rejected,
// still-queued jobs are cancelled, and running jobs are drained until ctx
// expires, at which point their contexts are cancelled (each GA then stops
// within one generation) and Shutdown waits for them to unwind.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	first := !s.draining
	s.draining = true
	s.mu.Unlock()
	if first {
		// No enqueue follows draining, so the queue can close once its
		// jobs are cancelled. They stay pending in the store: the next
		// incarnation runs them.
		for _, j := range s.jobs.Jobs() {
			j.Lock()
			if j.State == StateQueued {
				j.FinishLocked(StateCancelled, "service shutting down", nil)
			}
			j.Unlock()
		}
		close(s.queue)
	}

	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		s.abort()
		<-drained
		return ctx.Err()
	}
}

// ---- job execution ----

func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

func (s *Server) runJob(j *localJob) {
	j.Lock()
	if j.State != StateQueued { // cancelled while queued
		j.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	j.State = StateRunning
	j.cancel = cancel
	j.Started = time.Now()
	j.Unlock()
	defer cancel()

	total := j.Spec.TotalGenerations()
	hooks := RunHooks{
		Progress: func(e core.ProgressEvent) {
			j.Publish(ProgressToWire(e, total))
		},
		CheckpointEvery: s.cfg.CheckpointEvery,
	}
	if s.cfg.Store != nil {
		// The checkpointer also carries any snapshot a previous daemon
		// incarnation saved for this spec, so a re-enqueued job resumes
		// mid-evolution instead of restarting.
		hooks.Checkpoint = newJobCheckpointer(s.cfg.Store, j.Hash)
	}
	inst, flib, err := Build(&j.Spec)
	var front *core.Front
	if err == nil {
		front, err = ExecuteOnHooks(ctx, inst, flib, &j.Spec, hooks)
	}
	switch {
	case ctx.Err() != nil && s.baseCtx.Err() != nil:
		// A forced-shutdown abort is not a client decision: the job keeps
		// its pending store record (plus the final cancellation checkpoint
		// the GA just wrote), so the next incarnation re-enqueues and
		// resumes it.
		j.Lock()
		j.FinishLocked(StateCancelled, "cancelled", nil)
		j.Unlock()
	case ctx.Err() != nil:
		// A client DELETE is terminal and is journaled.
		s.jobs.Finish(j, StateCancelled, "cancelled", nil)
	case err != nil:
		s.jobs.Finish(j, StateFailed, err.Error(), nil)
	default:
		s.jobs.Finish(j, StateDone, "", FrontToWire(front))
	}
	s.metrics.observeLatency(j.Spec.Method, time.Since(j.Started))
}

// ---- HTTP handlers ----

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, hash, ok := DecodeSpec(w, r, s.cfg.MaxBodyBytes)
	if !ok {
		return
	}

	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		HTTPError(w, http.StatusServiceUnavailable, errDraining.Error())
		return
	}
	s.metrics.incSubmitted()
	_, wire, route, err := s.jobs.Submit(spec, hash, newLocalJob, s.enqueue)
	switch route {
	case Attached:
		s.metrics.incDeduped()
		WriteJSON(w, http.StatusAccepted, wire)
	case CacheHit, StoreHit:
		s.metrics.incCacheHit()
		WriteJSON(w, http.StatusOK, wire)
	case Refused:
		s.metrics.incCacheMiss()
		s.metrics.incRejected()
		HTTPError(w, http.StatusServiceUnavailable, err.Error())
	case Queued:
		s.metrics.incCacheMiss()
		if err != nil {
			HTTPError(w, http.StatusInternalServerError, err.Error())
			return
		}
		WriteJSON(w, http.StatusAccepted, wire)
	}
}

var errDraining = errors.New("service shutting down")

// enqueue hands a miss to the workers, refusing it while draining or when
// the queue is full.
func (s *Server) enqueue(j *localJob) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return errDraining
	}
	select {
	case s.queue <- j:
		return nil
	default:
		return fmt.Errorf("queue full (%d jobs waiting)", s.cfg.QueueCap)
	}
}

// lookup resolves the path's job, answering 404 when there is none.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *localJob {
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		HTTPError(w, http.StatusNotFound, "no such job")
	}
	return j
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	if j := s.lookup(w, r); j != nil {
		WriteJSON(w, http.StatusOK, j.Wire(true))
	}
}

func (s *Server) handleWait(w http.ResponseWriter, r *http.Request) {
	if j := s.lookup(w, r); j != nil {
		ServeWait(w, r, j.Job)
	}
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if j := s.lookup(w, r); j != nil {
		ServeEvents(w, r, j.Job)
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	WriteJobList(w, s.jobs.Jobs())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	// A client cancellation of a queued job is a terminal decision:
	// journaled, so a restart does not resurrect it, and the worker skips
	// it. A running GA polls its context between generations, so the run
	// stops within one; the worker then finishes and journals the job.
	s.jobs.Cancel(j, func(j *localJob) { j.cancel() })
	WriteJSON(w, http.StatusAccepted, j.Wire(false))
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.metrics.snapshot()
	m.Queue = QueueWire{Depth: len(s.queue), Capacity: s.cfg.QueueCap}
	m.Accel = core.AccelTotals()
	m.Selection = core.SelectionTotals()
	m.FaultModel = faultmodel.Totals()
	if st := s.cfg.Store; st != nil {
		sw := st.Stats()
		m.Store = &sw
	}
	m.Cache.Size = s.jobs.CacheLen()
	m.Cache.Capacity = s.cfg.CacheCap
	for _, j := range s.jobs.Jobs() {
		j.Lock()
		switch j.State {
		case StateQueued:
			m.Jobs.Queued++
		case StateRunning:
			m.Jobs.Running++
		case StateDone:
			m.Jobs.Done++
		case StateFailed:
			m.Jobs.Failed++
		case StateCancelled:
			m.Jobs.Cancelled++
		}
		j.Unlock()
	}
	WriteJSON(w, http.StatusOK, m)
}

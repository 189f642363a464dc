package service

import (
	"context"
	"crypto/subtle"
	"encoding/json"
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
	// terminal results are journaled, GA runs checkpoint every
	// CheckpointEvery generations, and New replays the store — cached
	// fronts are rehydrated, finished jobs reappear, and jobs that never
	// reached a terminal state are re-enqueued (resuming mid-evolution
	// from their checkpoints).
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

// Server is the DSE job service: a bounded FIFO queue drained by a fixed
// worker pool, an LRU result cache keyed by the canonical spec hash, and
// the HTTP API on top. Create with New, serve via http.Server, stop with
// Shutdown.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	queue   chan *localJob
	baseCtx context.Context
	abort   context.CancelFunc // cancels all running jobs (forced shutdown)
	metrics *Metrics
	wg      sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*localJob
	order    []string // submission order, for listing
	cache    *FrontCache
	draining bool
	nextID   int64
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
		jobs:    make(map[string]*localJob),
		cache:   NewFrontCache(cfg.CacheCap),
	}
	// Recovery pass: replay the store before serving, and size the queue so
	// the whole recovered backlog fits alongside a full queue of new work.
	var pending []*localJob
	if cfg.Store != nil {
		pending = s.recover(cfg.Store)
	}
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
	if !s.draining {
		s.draining = true
		for _, id := range s.order {
			j := s.jobs[id]
			j.Lock()
			if j.State == StateQueued {
				j.FinishLocked(StateCancelled, "service shutting down", nil)
			}
			j.Unlock()
		}
		close(s.queue)
	}
	s.mu.Unlock()

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
	cancelled := ctx.Err() != nil
	var wire *FrontWire
	if !cancelled && err == nil {
		// Cache the front before the job reads done, so a client that
		// resubmits the moment it sees done is served from the cache.
		wire = FrontToWire(front)
		s.mu.Lock()
		s.cache.Add(j.Hash, wire)
		s.mu.Unlock()
	}

	j.Lock()
	j.cancel = nil
	aborted := false
	switch {
	case cancelled:
		j.FinishLocked(StateCancelled, "cancelled", nil)
		// A forced-shutdown abort is not a client decision: the job keeps
		// its pending store record (plus the final cancellation checkpoint
		// the GA just wrote), so the next incarnation re-enqueues and
		// resumes it. A client DELETE is terminal and is journaled.
		aborted = s.baseCtx.Err() != nil
	case err != nil:
		j.FinishLocked(StateFailed, err.Error(), nil)
	default:
		j.FinishLocked(StateDone, "", wire)
	}
	if !aborted {
		// In the same lock hold: no reader sees the job end before the
		// store holds its outcome and has dropped its checkpoint.
		j.JournalLocked(s.cfg.Store)
	}
	j.Unlock()
	s.metrics.observeLatency(j.Spec.Method, time.Since(j.Started))
}

// ---- HTTP handlers ----

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, hash, ok := DecodeSpec(w, r, s.cfg.MaxBodyBytes)
	if !ok {
		return
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		HTTPError(w, http.StatusServiceUnavailable, "service shutting down")
		return
	}
	s.metrics.incSubmitted()
	// In-flight dedupe: a spec identical to one already queued or running
	// is the same deterministic computation, so the second client attaches
	// to the first job instead of doubling the work. (Finished duplicates
	// are handled below by the result cache.)
	for i := len(s.order) - 1; i >= 0; i-- {
		dup := s.jobs[s.order[i]]
		if dup.Hash != hash {
			continue
		}
		dup.Lock()
		active := dup.State == StateQueued || dup.State == StateRunning
		dup.Unlock()
		if active {
			s.metrics.incDeduped()
			s.mu.Unlock()
			WriteJSON(w, http.StatusAccepted, dup.Wire(false))
			return
		}
	}
	s.nextID++
	j := &localJob{Job: NewJob(fmt.Sprintf("j%06d", s.nextID), spec, hash, time.Now())}
	if front, ok := s.cache.Get(hash); ok {
		// Same canonical spec (incl. seed) → same deterministic front:
		// serve the cached result without running.
		s.metrics.incCacheHit()
		j.FinishCached(front)
		s.jobs[j.ID] = j
		s.order = append(s.order, j.ID)
		s.mu.Unlock()
		if st := s.cfg.Store; st != nil {
			// Best-effort: the front itself is already durable under this
			// hash; journaling the job record just keeps GET /v1/jobs/{id}
			// answering across a restart.
			if spec, err := json.Marshal(&j.Spec); err == nil {
				_ = st.AcceptJob(j.ID, hash, spec, j.Submitted)
				j.JournalFinish(st)
			}
		}
		WriteJSON(w, http.StatusOK, j.Wire(true))
		return
	}
	s.metrics.incCacheMiss()
	// Holding the job's lock across enqueue + journaling keeps a fast
	// worker from finishing the job before its accept record is durable
	// (runJob's first act is taking the lock).
	j.Lock()
	select {
	case s.queue <- j:
	default:
		j.Unlock()
		s.nextID--
		s.metrics.incRejected()
		s.mu.Unlock()
		HTTPError(w, http.StatusServiceUnavailable,
			fmt.Sprintf("queue full (%d jobs waiting)", s.cfg.QueueCap))
		return
	}
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.mu.Unlock()
	if st := s.cfg.Store; st != nil {
		// Journal the accepted spec before acknowledging: once the client
		// sees 202, the job survives a crash. A store failure fails the
		// job up front rather than acknowledging work that could vanish.
		spec, err := json.Marshal(&j.Spec)
		if err == nil {
			err = st.AcceptJob(j.ID, hash, spec, j.Submitted)
		}
		if err != nil {
			j.FinishLocked(StateFailed, "journaling job: "+err.Error(), nil)
			j.Unlock()
			HTTPError(w, http.StatusInternalServerError, "journaling job: "+err.Error())
			return
		}
	}
	j.Unlock()
	WriteJSON(w, http.StatusAccepted, j.Wire(false))
}

// lookup resolves the path's job, answering 404 when there is none.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *localJob {
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if j == nil {
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
	s.mu.Lock()
	jobs := make([]*Job, len(s.order))
	for i, id := range s.order {
		jobs[i] = s.jobs[id].Job
	}
	s.mu.Unlock()
	WriteJobList(w, jobs)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	j.Lock()
	wasQueued := false
	switch j.State {
	case StateQueued:
		// The job stays in the queue channel; the worker skips it.
		wasQueued = j.FinishLocked(StateCancelled, "cancelled", nil)
	case StateRunning:
		// The GA polls the context between generations, so the run stops
		// within one generation; the worker then marks the job cancelled.
		j.cancel()
	}
	j.Unlock()
	if wasQueued {
		// A client cancellation is a terminal decision: journal it (and
		// drop any checkpoint) so a restart does not resurrect the job.
		// Running jobs are journaled by the worker once the GA unwinds.
		j.JournalFinish(s.cfg.Store)
	}
	WriteJSON(w, http.StatusAccepted, j.Wire(false))
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.metrics.snapshot()
	m.Queue = QueueWire{Depth: len(s.queue), Capacity: s.cfg.QueueCap}
	at := core.AccelTotals()
	m.Accel = EvalAccelWire{
		DeltaParentReuse: at.DeltaParentReuse,
		DeltaPrefixRuns:  at.DeltaPrefixRuns,
		DeltaFullRuns:    at.DeltaFullRuns,
		MetricsReused:    at.MetricsReused,
		BatchWarmed:      at.BatchWarmed,
		ProxyEvals:       at.ProxyEvals,
		ScreenedOut:      at.ScreenedOut,
		PairedSolves:     at.PairedSolves,
		SoloSolves:       at.SoloSolves,
	}
	st := core.SelectionTotals()
	m.Selection = SelectionWire{SortNanos: st.SortNanos, ArchiveNanos: st.ArchiveNanos}
	fm := faultmodel.Totals()
	m.FaultModel = FaultModelWire{
		Evals:              fm.Evals,
		PermChains:         fm.PermChains,
		CheckpointPolicies: fm.CheckpointPolicies,
	}
	m.Convergence = ConvergenceWire{
		GenerationsRun:    st.GenerationsRun,
		GenerationsBudget: st.GenerationsBudget,
		GenerationsSaved:  st.GenerationsSaved,
		PlateauStops:      st.PlateauStops,
		LastHypervolume:   st.LastHypervolume,
	}
	if st := s.cfg.Store; st != nil {
		sw := StoreWire(st.Stats())
		m.Store = &sw
	}
	s.mu.Lock()
	m.Cache.Size = s.cache.Len()
	m.Cache.Capacity = s.cfg.CacheCap
	jobs := make([]*localJob, len(s.order))
	for i, id := range s.order {
		jobs[i] = s.jobs[id]
	}
	s.mu.Unlock()
	for _, j := range jobs {
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

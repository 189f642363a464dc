// Package dist federates DSE sweeps across a registry of remote clrearlyd
// workers. A Coordinator shards cells (one cell = one JobSpec or one local
// closure) over the workers through the daemon's /v1/jobs HTTP API, with
// per-cell timeouts, retry with exponential backoff and jitter, hedged
// re-dispatch of stragglers, periodic health checks, and graceful
// degradation to local execution when no worker can produce a result.
//
// Determinism contract: a distributed run produces byte-identical output to
// a single-node run regardless of worker count, placement, retries, hedges
// or mid-sweep worker death. Three properties make that hold:
//
//  1. Specs are self-contained — a worker rebuilds the exact instance from
//     seeds, so the remote front equals the local front bit-for-bit (JSON
//     float64 round trips are exact, archive order travels on the wire).
//  2. Results are stored per cell and merged by the caller in cell order,
//     never in completion order.
//  3. Every failure path (worker death, timeout, deterministic job
//     failure) ends in cell.Local(), which is ground truth.
package dist

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/sweep"
)

// errNoWorkers means no healthy worker was available for dispatch.
var errNoWorkers = errors.New("dist: no healthy workers")

// Cell is one shardable unit of a sweep.
type Cell struct {
	// Spec is the remote form of the cell. A nil Spec pins the cell to the
	// local path (e.g. ablation cells with no wire representation).
	Spec *service.JobSpec
	// Local computes the cell in-process. It is the fallback for every
	// remote failure and the ground truth for determinism.
	Local func() (*core.Front, error)
	// Store receives the cell's front. The coordinator calls it from the
	// dispatching goroutine; callers writing to shared state should store
	// into per-cell slots and merge after Run returns.
	Store func(*core.Front)
}

// Options tunes a Coordinator. Zero values select the defaults noted on
// each field.
type Options struct {
	// MaxInFlight bounds cells dispatched concurrently (default 2 per
	// worker, minimum 4).
	MaxInFlight int
	// CellTimeout bounds one remote attempt end-to-end (default 10m).
	CellTimeout time.Duration
	// MaxAttempts is the total number of remote attempts per cell before
	// falling back to local execution (default 3).
	MaxAttempts int
	// BackoffBase and BackoffMax shape the exponential backoff between
	// attempts (defaults 100ms and 5s); each delay gets up to 50% jitter.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// HedgeAfter launches a second copy of a still-running cell on another
	// worker after this delay; first result wins (default 30s, negative
	// disables).
	HedgeAfter time.Duration
	// WaitSlice is the long-poll window per /wait request (default 2s).
	WaitSlice time.Duration
	// WaitRetries is how many consecutive transient wait failures (worker
	// dead or answering 5xx) a dispatched cell rides out in place — one
	// WaitSlice of delay each — before the cell is abandoned and
	// re-dispatched (default 15, i.e. 30s of outage at the default slice;
	// negative disables in-place retries). Durable workers resume their
	// jobs after a restart, so waiting preserves mid-evolution progress
	// that a re-dispatch would throw away.
	WaitRetries int
	// HealthEvery is the health-probe period (default 2s, negative
	// disables the probe loop).
	HealthEvery time.Duration
	// Client overrides the HTTP client (default: http.Client with no
	// overall timeout; per-request contexts bound each call).
	Client *http.Client
}

func (o Options) withDefaults(workers int) Options {
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = max(4, 2*workers)
	}
	if o.CellTimeout <= 0 {
		o.CellTimeout = 10 * time.Minute
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 100 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 5 * time.Second
	}
	if o.HedgeAfter == 0 {
		o.HedgeAfter = 30 * time.Second
	}
	if o.WaitSlice <= 0 {
		o.WaitSlice = 2 * time.Second
	}
	if o.WaitRetries == 0 {
		o.WaitRetries = 15
	} else if o.WaitRetries < 0 {
		o.WaitRetries = 0
	}
	if o.HealthEvery == 0 {
		o.HealthEvery = 2 * time.Second
	}
	if o.Client == nil {
		o.Client = &http.Client{}
	}
	return o
}

// Coordinator shards cells across remote workers. It is safe for
// concurrent use; create with New and release with Close.
type Coordinator struct {
	opts    Options
	workers []*worker
	backoff *Backoff

	stopHealth context.CancelFunc
	healthDone chan struct{}

	m coordMetrics
}

// New builds a coordinator over the given worker addresses ("host:port" or
// full base URLs; empty entries are skipped) and starts its health-probe
// loop. A coordinator with zero workers is valid and runs everything
// locally.
func New(urls []string, opts Options) *Coordinator {
	var workers []*worker
	seen := make(map[string]bool)
	cleaned := opts.withDefaults(0) // client default needed before newWorker
	for _, raw := range urls {
		u := NormalizeURL(raw)
		if u == "" || seen[u] {
			continue
		}
		seen[u] = true
		workers = append(workers, newWorker(u, cleaned.Client))
	}
	resolved := opts.withDefaults(len(workers))
	c := &Coordinator{
		opts:    resolved,
		workers: workers,
		backoff: NewBackoff(resolved.BackoffBase, resolved.BackoffMax),
	}
	if len(workers) > 0 && c.opts.HealthEvery > 0 {
		ctx, cancel := context.WithCancel(context.Background())
		c.stopHealth = cancel
		c.healthDone = make(chan struct{})
		go c.healthLoop(ctx)
	}
	return c
}

// Close stops the health-probe loop. In-flight Run calls are unaffected.
func (c *Coordinator) Close() {
	if c.stopHealth != nil {
		c.stopHealth()
		<-c.healthDone
		c.stopHealth = nil
	}
}

func (c *Coordinator) healthLoop(ctx context.Context) {
	defer close(c.healthDone)
	t := time.NewTicker(c.opts.HealthEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		// The probe deadline is decoupled from the probe period: a busy
		// worker (all cores in a GA generation) may answer /healthz slowly,
		// and a too-tight deadline would flap it unhealthy.
		timeout := max(time.Second, c.opts.HealthEvery)
		var wg sync.WaitGroup
		for _, w := range c.workers {
			wg.Add(1)
			go func(w *worker) {
				defer wg.Done()
				w.probe(timeout)
			}(w)
		}
		wg.Wait()
	}
}

// RunLocal executes cells entirely in-process with the sweep engine,
// storing each front as its cell completes. It is the zero-worker path of
// Coordinator.Run and useful on its own in tests as the determinism
// baseline.
func RunLocal(jobs int, cells []Cell) error {
	tasks := make([]func() error, len(cells))
	for i := range cells {
		cell := &cells[i]
		tasks[i] = func() error {
			front, err := cell.Local()
			if err != nil {
				return err
			}
			if cell.Store != nil && front != nil {
				cell.Store(front)
			}
			return nil
		}
	}
	return sweep.Run(jobs, tasks)
}

// Run executes cells across the coordinator's workers, falling back to
// local execution (bounded by localJobs) when no workers are registered or
// a cell exhausts its remote attempts. Errors follow the sweep engine's
// rule: the error of the lowest-indexed failing cell wins, so error output
// is deterministic too.
func (c *Coordinator) Run(ctx context.Context, localJobs int, cells []Cell) error {
	if len(c.workers) == 0 {
		return RunLocal(localJobs, cells)
	}
	tasks := make([]func() error, len(cells))
	for i := range cells {
		cell := &cells[i]
		tasks[i] = func() error {
			front, err := c.execute(ctx, cell)
			if err != nil {
				return err
			}
			if cell.Store != nil && front != nil {
				cell.Store(front)
			}
			return nil
		}
	}
	return sweep.RunCtx(ctx, c.opts.MaxInFlight, tasks)
}

// RunOne pushes a single spec through the federation machinery — dispatch,
// retry, hedging, local fallback — and returns its front.
func (c *Coordinator) RunOne(ctx context.Context, spec *service.JobSpec, local func() (*core.Front, error)) (*core.Front, error) {
	var out *core.Front
	cell := Cell{Spec: spec, Local: local, Store: func(f *core.Front) { out = f }}
	if err := c.Run(ctx, 1, []Cell{cell}); err != nil {
		return nil, err
	}
	return out, nil
}

// execute resolves one cell to a front: remote attempts with backoff, then
// the local fallback.
func (c *Coordinator) execute(ctx context.Context, cell *Cell) (*core.Front, error) {
	if cell.Spec == nil {
		c.m.localOnly.Add(1)
		return cell.Local()
	}
	c.m.inFlight.Add(1)
	defer c.m.inFlight.Add(-1)
	for attempt := 0; attempt < c.opts.MaxAttempts; attempt++ {
		if attempt > 0 {
			if !c.backoff.Sleep(ctx, attempt) {
				break
			}
			c.m.retries.Add(1)
		}
		fw, err := c.tryRemote(ctx, cell.Spec)
		if err == nil {
			c.m.remoteCells.Add(1)
			return service.FrontFromWire(fw), nil
		}
		// Deterministic failures and dead contexts gain nothing from
		// another attempt; local execution reproduces the canonical
		// outcome (including the canonical error, if any).
		if errors.Is(err, errPermanent) || errors.Is(err, errNoWorkers) || ctx.Err() != nil {
			break
		}
	}
	c.m.localFallbacks.Add(1)
	return cell.Local()
}

// tryRemote runs one timed attempt of a spec, hedging onto a second worker
// if the first is slow. The first success wins; the loser is cancelled via
// the attempt context.
func (c *Coordinator) tryRemote(ctx context.Context, spec *service.JobSpec) (*service.FrontWire, error) {
	attemptCtx, cancel := context.WithTimeout(ctx, c.opts.CellTimeout)
	defer cancel()

	primary := c.pick(nil)
	if primary == nil {
		return nil, errNoWorkers
	}

	type outcome struct {
		fw  *service.FrontWire
		err error
	}
	results := make(chan outcome, 2) // buffered: a late loser must not leak
	launch := func(w *worker) {
		w.inflight.Add(1)
		go func() {
			defer w.inflight.Add(-1)
			fw, err := w.runJob(attemptCtx, spec, c.opts.WaitSlice, c.opts.WaitRetries)
			results <- outcome{fw, err}
		}()
	}
	launch(primary)
	outstanding := 1

	var hedgeC <-chan time.Time
	if c.opts.HedgeAfter > 0 {
		t := time.NewTimer(c.opts.HedgeAfter)
		defer t.Stop()
		hedgeC = t.C
	}

	var firstErr error
	for outstanding > 0 {
		select {
		case o := <-results:
			outstanding--
			if o.err == nil {
				return o.fw, nil
			}
			if firstErr == nil {
				firstErr = o.err
			}
			if errors.Is(o.err, errPermanent) {
				// The spec fails deterministically; a hedge twin would
				// fail identically. Cut it loose and report now.
				return nil, o.err
			}
		case <-hedgeC:
			hedgeC = nil
			if twin := c.pick(primary); twin != nil {
				c.m.hedges.Add(1)
				launch(twin)
				outstanding++
			}
		}
	}
	return nil, firstErr
}

// pick selects the healthy worker with the fewest in-flight cells,
// excluding one (the hedge primary). Ties break on registry order.
func (c *Coordinator) pick(exclude *worker) *worker {
	var best *worker
	var bestLoad int64
	for _, w := range c.workers {
		if w == exclude || !w.healthy.Load() {
			continue
		}
		load := w.inflight.Load()
		if best == nil || load < bestLoad {
			best, bestLoad = w, load
		}
	}
	return best
}

// sleepCtx sleeps for d, returning false if ctx ends first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if ctx == nil {
		time.Sleep(d)
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

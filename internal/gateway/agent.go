package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/service"
)

// ExecFunc runs one leased spec to completion, reporting per-generation
// progress. The default is service.Execute.
type ExecFunc func(ctx context.Context, s *service.JobSpec, progress func(core.ProgressEvent)) (*core.Front, error)

// AgentConfig configures a pull worker attached to a gateway.
type AgentConfig struct {
	// Gateway is the gateway base URL, e.g. "http://127.0.0.1:8080".
	Gateway string
	// Token authenticates the agent to the gateway's lease API (the
	// gateway's -worker-token).
	Token string
	// Name identifies this worker in leases and /metrics. Required.
	Name string
	// Addr, when non-empty, is this worker's own HTTP address, advertised
	// so the gateway can probe its /healthz.
	Addr string
	// PollTimeout is the lease long-poll window (default 2s).
	PollTimeout time.Duration
	// Exec runs a leased spec (default service.Execute). Tests substitute
	// stubs to control timing and failures.
	Exec ExecFunc
	// Client is the HTTP client used for all gateway calls.
	Client *http.Client
}

// Agent is the worker half of the pull-based control plane: it long-polls
// the gateway for leases, executes the granted specs locally, posts
// per-generation progress (which renews the lease), and reports terminal
// outcomes. A clrearlyd started with -gateway runs one Agent; without it,
// clrearlyd's gateway runs its agents in process (Config.Workers).
type Agent struct {
	cfg     AgentConfig
	client  *http.Client
	backoff *backoff

	killed  atomic.Bool // hard-death simulation: abandon everything silently
	mu      sync.Mutex
	cancel  context.CancelFunc // cancels the Run loop and any in-flight job
	stopped bool               // Stop was called; a later Run returns at once
	wg      sync.WaitGroup     // the Run loop and its renewal goroutines
}

// NewAgent validates the config and returns an unstarted agent.
func NewAgent(cfg AgentConfig) (*Agent, error) {
	if cfg.Gateway == "" {
		return nil, fmt.Errorf("gateway agent: no gateway URL")
	}
	if cfg.Name == "" {
		return nil, fmt.Errorf("gateway agent: no worker name")
	}
	if cfg.PollTimeout <= 0 {
		cfg.PollTimeout = 2 * time.Second
	}
	if cfg.Exec == nil {
		cfg.Exec = service.Execute
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	return &Agent{
		cfg:     cfg,
		client:  client,
		backoff: newBackoff(),
	}, nil
}

// Run leases and executes jobs until ctx is cancelled, Stop is called, or
// Kill marks the agent dead. It processes one job at a time: CL(R)Early
// runs are CPU-bound GAs, so per-worker parallelism comes from running
// more workers, not more goroutines per worker.
func (a *Agent) Run(ctx context.Context) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	a.mu.Lock()
	if a.stopped {
		a.mu.Unlock()
		return
	}
	a.cancel = cancel
	a.wg.Add(1)
	a.mu.Unlock()
	defer a.wg.Done()

	attempt := 0
	for ctx.Err() == nil && !a.killed.Load() {
		grant, err := a.lease(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			attempt++
			a.backoff.sleep(ctx, attempt)
			continue
		}
		attempt = 0
		if grant == nil {
			continue // long-poll timeout: queue was empty
		}
		a.runOne(ctx, grant)
	}
}

// Stop cancels the run loop and any in-flight job, then waits for Run to
// return: the run stops within one generation, and a checkpointing Exec
// has written its final snapshot. The in-flight job is abandoned without
// a completion call, so its lease expires and the gateway re-enqueues it —
// exactly the behaviour wanted when draining a worker out of the fleet.
func (a *Agent) Stop() {
	a.mu.Lock()
	a.stopped = true
	cancel := a.cancel
	a.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	a.wg.Wait()
}

// Kill simulates abrupt worker death (SIGKILL): the agent stops leasing
// and abandons the in-flight job without notifying the gateway, leaving
// the lease to expire on its own.
func (a *Agent) Kill() {
	a.killed.Store(true)
	a.Stop()
}

// lease long-polls POST /v1/lease once. A nil grant with nil error means
// the poll timed out with no work.
func (a *Agent) lease(ctx context.Context) (*LeaseGrant, error) {
	req := LeaseRequest{
		Worker:  a.cfg.Name,
		Addr:    a.cfg.Addr,
		Timeout: a.cfg.PollTimeout.String(),
	}
	status, body, err := a.post(ctx, "/v1/lease", req)
	if err != nil {
		return nil, err
	}
	switch status {
	case http.StatusOK:
		var grant LeaseGrant
		if err := json.Unmarshal(body, &grant); err != nil {
			return nil, fmt.Errorf("decoding lease grant: %w", err)
		}
		if grant.Spec == nil {
			return nil, fmt.Errorf("lease grant %s carries no spec", grant.LeaseID)
		}
		return &grant, nil
	case http.StatusNoContent:
		return nil, nil
	default:
		return nil, fmt.Errorf("lease: gateway returned %d: %s", status, bytes.TrimSpace(body))
	}
}

// runOne executes a granted lease: the spec runs under a job-local context
// that gateway-side cancellation (or lease loss) cancels, progress posts
// double as renewals, and a renewal ticker covers long gaps between
// generations.
func (a *Agent) runOne(ctx context.Context, grant *LeaseGrant) {
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()

	ttl := time.Duration(grant.TTLMS) * time.Millisecond
	renewEvery := ttl / 3
	if renewEvery < time.Millisecond {
		renewEvery = time.Millisecond
	}
	a.wg.Add(1)
	renewDone := make(chan struct{})
	go func() {
		defer a.wg.Done()
		t := time.NewTicker(renewEvery)
		defer t.Stop()
		for {
			select {
			case <-renewDone:
				return
			case <-runCtx.Done():
				return
			case <-t.C:
			}
			if a.killed.Load() {
				return
			}
			status, body, err := a.post(runCtx, "/v1/lease/"+grant.LeaseID+"/renew", struct{}{})
			if err != nil {
				continue // transient; the next tick retries
			}
			if status == http.StatusGone {
				cancelRun() // lease reclaimed: the run's result is redundant
				return
			}
			var ack LeaseAck
			if status == http.StatusOK && json.Unmarshal(body, &ack) == nil && ack.Cancelled {
				cancelRun()
				return
			}
		}
	}()

	total := grant.Spec.TotalGenerations()
	var lastMu sync.Mutex
	var last *service.ProgressWire
	progress := func(e core.ProgressEvent) {
		if a.killed.Load() {
			cancelRun()
			return
		}
		p := service.ProgressToWire(e, total)
		lastMu.Lock()
		last = &p
		lastMu.Unlock()
		status, body, err := a.post(runCtx, "/v1/lease/"+grant.LeaseID+"/progress", p)
		if err != nil {
			return
		}
		if status == http.StatusGone {
			cancelRun()
			return
		}
		var ack LeaseAck
		if status == http.StatusOK && json.Unmarshal(body, &ack) == nil && ack.Cancelled {
			cancelRun()
		}
	}

	front, execErr := a.cfg.Exec(runCtx, grant.Spec, progress)
	close(renewDone)
	if a.killed.Load() {
		return // died mid-lease: say nothing, let the lease expire
	}

	lastMu.Lock()
	final := last
	lastMu.Unlock()
	comp := CompleteRequest{Final: final}
	switch {
	case execErr == nil:
		comp.State = service.StateDone
		comp.Front = service.FrontToWire(front)
	case runCtx.Err() != nil && ctx.Err() != nil:
		// The agent itself is shutting down: abandon the lease so the
		// gateway redelivers the job to a surviving worker.
		return
	case runCtx.Err() != nil:
		// Gateway-requested cancellation (or lease loss, where the
		// completion call lands 410 and is ignored anyway).
		comp.State = service.StateCancelled
	default:
		comp.State = service.StateFailed
		comp.Error = execErr.Error()
	}
	// Complete with a context that survives run cancellation: the
	// cancellation acknowledgement must still reach the gateway.
	cctx, cc := context.WithTimeout(context.WithoutCancel(ctx), 10*time.Second)
	defer cc()
	a.post(cctx, "/v1/lease/"+grant.LeaseID+"/complete", comp)
}

// post sends one authenticated JSON request to the gateway.
func (a *Agent) post(ctx context.Context, path string, body any) (int, []byte, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, a.cfg.Gateway+path, bytes.NewReader(raw))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if a.cfg.Token != "" {
		req.Header.Set("Authorization", "Bearer "+a.cfg.Token)
	}
	resp, err := a.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, data, nil
}

// Command clrearlyd serves CL(R)Early DSE as a long-running HTTP service:
// jobs are submitted as JSON specs, queued into a bounded FIFO, run by a
// worker pool whose GAs share the process-wide CPU-token budget, and
// streamed back as generation-by-generation SSE progress plus a typed
// Pareto front. Identical specs are served from an LRU result cache.
//
// Usage:
//
//	clrearlyd [-addr :8080] [-workers N] [-queue N] [-cache N] [-drain 30s]
//	          [-store DIR] [-fsync always|interval|never] [-checkpoint-every K]
//	          [-pprof addr] [-worker-token TOK] [-max-body N]
//	          [-gateway URL] [-worker-name NAME]
//
// With -gateway the daemon additionally joins a clrearlygw fleet: it
// long-polls the gateway for job leases, executes them locally, and
// streams progress and results back, while still serving its own API.
// -worker-token then does double duty — it locks the local job API and
// authenticates the agent to the gateway.
//
// With -store the daemon is durable: accepted jobs and finished results are
// journaled to a write-ahead log under DIR, GA runs checkpoint every K
// generations, and a restart re-enqueues unfinished jobs (resuming them
// mid-evolution) and re-serves cached results — a crash loses no
// acknowledged work.
//
// API:
//
//	POST   /v1/jobs             submit a job spec, returns the job status
//	GET    /v1/jobs             list jobs
//	GET    /v1/jobs/{id}        job status (+ Pareto front when done)
//	GET    /v1/jobs/{id}/wait   long-poll job status (?timeout=30s)
//	GET    /v1/jobs/{id}/events SSE stream of per-generation progress
//	DELETE /v1/jobs/{id}        cancel (queued or running)
//	GET    /healthz             liveness probe
//	GET    /metrics             jobs by state, queue depth, result-cache
//	                            hit rate, evaluation counters, per-method
//	                            latency histograms, store gauges
//
// -pprof serves net/http/pprof (goroutine, heap, CPU profiles) on a
// separate address, e.g. -pprof localhost:6060; off by default so
// profiling endpoints are never exposed unintentionally.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the -pprof listener
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/service"
	"repro/internal/store"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "clrearlyd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("clrearlyd", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 2, "concurrent job runners (their GAs share the CPU-token pool)")
	queueCap := fs.Int("queue", 64, "queued-job capacity; beyond it submissions get 503")
	cacheCap := fs.Int("cache", 128, "LRU result-cache capacity (fronts)")
	drain := fs.Duration("drain", 30*time.Second, "graceful-shutdown deadline for running jobs")
	storeDir := fs.String("store", "", "durable store directory (empty = in-memory only)")
	fsyncMode := fs.String("fsync", "always", "store fsync policy: always, interval or never")
	ckptEvery := fs.Int("checkpoint-every", core.DefaultCheckpointEvery,
		"GA generations between durable run checkpoints (with -store)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (empty = disabled)")
	workerToken := fs.String("worker-token", "",
		"bearer token required on the job API (and presented to -gateway); empty = open")
	maxBody := fs.Int64("max-body", 1<<20, "POST /v1/jobs body size cap in bytes (negative = unbounded)")
	gatewayURL := fs.String("gateway", "",
		"lease work from this clrearlygw gateway in addition to serving the local API")
	workerName := fs.String("worker-name", "", "worker name advertised to the gateway (default host:pid)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *pprofAddr != "" {
		// The pprof mux is the package's DefaultServeMux registration;
		// serving it on its own listener keeps the job API surface clean.
		go func() {
			log.Printf("pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("pprof server: %v", err)
			}
		}()
	}

	cfg := service.Config{
		QueueCap:        *queueCap,
		Workers:         *workers,
		CacheCap:        *cacheCap,
		CheckpointEvery: *ckptEvery,
		AuthToken:       *workerToken,
		MaxBodyBytes:    *maxBody,
	}
	if *storeDir != "" {
		policy, err := store.ParseSyncPolicy(*fsyncMode)
		if err != nil {
			return err
		}
		st, err := store.Open(*storeDir, store.Options{Sync: policy})
		if err != nil {
			return err
		}
		defer st.Close()
		cfg.Store = st
		stats := st.Stats()
		log.Printf("store %s opened (fsync=%s): %d jobs (%d pending), %d results, %d checkpoints",
			*storeDir, policy, stats.Jobs, stats.PendingJobs, stats.Results, stats.Checkpoints)
	}

	svc := service.New(cfg)
	hs := &http.Server{Handler: svc}

	// An explicit listener (rather than ListenAndServe) reports the bound
	// address, so ":0" works for tests and scripts that parse the log line.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var agent *gateway.Agent
	if *gatewayURL != "" {
		name := *workerName
		if name == "" {
			host, _ := os.Hostname()
			name = fmt.Sprintf("%s-%d", host, os.Getpid())
		}
		agent, err = gateway.NewAgent(gateway.AgentConfig{
			Gateway: *gatewayURL,
			Token:   *workerToken,
			Name:    name,
			Addr:    "http://" + ln.Addr().String(),
		})
		if err != nil {
			return err
		}
		go func() {
			log.Printf("leasing work from gateway %s as %q", *gatewayURL, name)
			agent.Run(ctx)
		}()
	}

	errc := make(chan error, 1)
	go func() {
		log.Printf("clrearlyd listening on %s (workers=%d queue=%d cache=%d)",
			ln.Addr(), *workers, *queueCap, *cacheCap)
		errc <- hs.Serve(ln)
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Printf("shutting down: draining running jobs (deadline %s)", *drain)
	if agent != nil {
		agent.Stop() // abandon any held lease so the gateway redelivers it
	}
	shCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(shCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("http shutdown: %v", err)
	}
	if err := svc.Shutdown(shCtx); err != nil {
		log.Printf("job drain hit deadline; running jobs were cancelled (checkpointed runs resume on restart)")
	}
	log.Printf("clrearlyd stopped")
	return nil
}

// Command clrearlyd serves CL(R)Early DSE as a long-running HTTP service:
// jobs are submitted as JSON specs, queued, run by in-process workers
// whose GAs share the process-wide CPU-token budget, and streamed back as
// generation-by-generation SSE progress plus a typed Pareto front.
// Identical specs are answered from an LRU result cache.
//
// Usage:
//
//	clrearlyd [-addr :8080] [-workers N] [-queue N] [-cache N] [-drain 30s]
//	          [-store DIR] [-fsync always|interval|never] [-checkpoint-every K]
//	          [-pprof addr] [-worker-token TOK] [-max-body N]
//	          [-gateway URL] [-worker-name NAME]
//
// The daemon is the fleet gateway (internal/gateway) running -workers
// agents in process, with one tenant whose key is -worker-token. With a
// token every endpoint but /healthz requires "Authorization: Bearer TOK";
// without one the API is open, and the agents lease with a random
// per-process token. A full queue answers 429 with Retry-After.
//
// With -gateway URL the process is only a worker of a clrearlygw fleet:
// it leases jobs from the gateway, runs them and reports back, presenting
// -worker-token, and serves /healthz and the engine counters on /metrics.
//
// With -store, accepted jobs, finished results and run checkpoints (every
// K generations) are journaled to a write-ahead log under DIR, and a
// restart resumes unfinished jobs mid-evolution and re-serves cached
// results. SIGINT/SIGTERM end open /wait and /events requests at once,
// drain the other HTTP requests for up to -drain, then stop running jobs
// within one generation; with -store they resume on restart.
//
// API:
//
//	POST   /v1/jobs             submit a job spec, returns the job status
//	GET    /v1/jobs             list jobs (the newest 1024)
//	GET    /v1/jobs/{id}        job status (+ Pareto front when done)
//	GET    /v1/jobs/{id}/wait   long-poll job status (?timeout=30s)
//	GET    /v1/jobs/{id}/events SSE stream of per-generation progress
//	DELETE /v1/jobs/{id}        cancel (queued or running)
//	GET    /healthz             liveness probe
//	GET    /metrics             admission, queue, lease and store gauges,
//	                            evaluation counters, latency histograms
//
// -pprof serves net/http/pprof on a separate address, e.g. -pprof
// localhost:6060; off by default.
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
	workers := fs.Int("workers", 2, "in-process job runners (their GAs share the CPU-token pool; ≤ 0: 2)")
	queueCap := fs.Int("queue", 64, "queued-job capacity; beyond it submissions get 429")
	cacheCap := fs.Int("cache", 128, "LRU result-cache capacity (fronts)")
	drain := fs.Duration("drain", 30*time.Second, "graceful-shutdown deadline for open HTTP requests")
	storeDir := fs.String("store", "", "durable store directory (empty = in-memory only)")
	fsyncMode := fs.String("fsync", "always", "store fsync policy: always, interval or never")
	ckptEvery := fs.Int("checkpoint-every", core.DefaultCheckpointEvery,
		"GA generations between durable run checkpoints (with -store)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (empty = disabled)")
	workerToken := fs.String("worker-token", "",
		"bearer token required on every endpoint but /healthz (and presented to -gateway); empty = open")
	maxBody := fs.Int64("max-body", 1<<20, "POST /v1/jobs body size cap in bytes (negative = unbounded)")
	gatewayURL := fs.String("gateway", "",
		"run as a worker leasing from this clrearlygw gateway instead of serving a job API")
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

	var st *store.Store
	if *storeDir != "" {
		policy, err := store.ParseSyncPolicy(*fsyncMode)
		if err != nil {
			return err
		}
		if st, err = store.Open(*storeDir, store.Options{Sync: policy}); err != nil {
			return err
		}
		defer st.Close()
		stats := st.Stats()
		log.Printf("store %s opened (fsync=%s): %d jobs (%d pending), %d results, %d checkpoints",
			*storeDir, policy, stats.Jobs, stats.PendingJobs, stats.Results, stats.Checkpoints)
	}

	// An explicit listener (rather than ListenAndServe) reports the bound
	// address, so ":0" works for tests and scripts that parse the log line.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var handler http.Handler
	var halt func() // stops the runs; each returns within one generation
	if *gatewayURL != "" {
		name := *workerName
		if name == "" {
			host, _ := os.Hostname()
			name = fmt.Sprintf("%s-%d", host, os.Getpid())
		}
		agent, err := gateway.NewAgent(gateway.AgentConfig{Gateway: *gatewayURL, Token: *workerToken, Name: name,
			Addr: "http://" + ln.Addr().String(), Exec: service.DurableExecute(st, *ckptEvery)})
		if err != nil {
			return err
		}
		mux := http.NewServeMux()
		mux.HandleFunc("GET /healthz", service.HandleHealthz)
		mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
			service.WriteJSON(w, http.StatusOK, gateway.EngineTotals())
		})
		handler, halt = mux, agent.Stop
		go agent.Run(ctx)
		log.Printf("clrearlyd listening on %s (leasing from gateway %s as %q)", ln.Addr(), *gatewayURL, name)
	} else {
		if *workers <= 0 {
			*workers = 2
		}
		gw, err := gateway.New(gateway.Config{
			Tenants:         []gateway.TenantConfig{{Name: "clrearlyd", Key: *workerToken, MaxActive: -1}},
			WorkerToken:     *workerToken,
			QueueCap:        *queueCap,
			CacheCap:        *cacheCap,
			Store:           st,
			MaxBodyBytes:    *maxBody,
			Workers:         *workers,
			CheckpointEvery: *ckptEvery,
		})
		if err != nil {
			return err
		}
		handler, halt = gw, gw.Close
		log.Printf("clrearlyd listening on %s (workers=%d queue=%d cache=%d)",
			ln.Addr(), *workers, *queueCap, *cacheCap)
	}
	hs := &http.Server{Handler: service.RequireBearer(*workerToken, handler)}
	service.EndLongPollsOnShutdown(hs)
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		halt()
		return err
	case <-ctx.Done():
	}
	log.Printf("shutting down: draining HTTP requests (deadline %s)", *drain)
	shCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(shCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("http shutdown: %v", err)
	}
	// The running jobs stop within a generation and, with -store, stay
	// pending with a final checkpoint: the next start resumes them.
	halt()
	log.Printf("clrearlyd stopped")
	return nil
}

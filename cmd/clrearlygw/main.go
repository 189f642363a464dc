// Command clrearlygw is the fleet control plane: an HTTP gateway fronting
// N clrearlyd workers that routes jobs content-addressed by spec hash (so
// the fleet shares one logical result cache), hands work out through
// pull-based TTL leases (workers run `clrearlyd -gateway URL`), and
// enforces per-tenant admission control — API keys, token-bucket rate
// limits, active-job quotas, priority classes with weighted-fair dequeue,
// and queue-depth backpressure answering 429 + Retry-After.
//
// Usage:
//
//	clrearlygw -tenants FILE [-addr :8081] [-worker-token TOK]
//	           [-store DIR] [-fsync always|interval|never]
//	           [-queue N] [-cache N] [-lease-ttl 15s] [-max-deliveries N]
//	           [-probe-every 5s] [-max-body N]
//
// The tenants file is JSON:
//
//	{"tenants": [
//	  {"name": "acme", "key": "acme-key-1", "rate_per_sec": 10,
//	   "burst": 20, "max_active": 8, "priority": "high"}
//	]}
//
// With -store the control plane is durable: admitted jobs are journaled
// before the 202 ack and finished fronts become the replicated result
// store, so a restarted gateway re-enqueues unfinished jobs and keeps
// serving cached results.
//
// The tenant-facing job API (POST/GET/DELETE /v1/jobs, /wait, /events
// SSE) runs clrearlyd's own code, so existing clients work unchanged;
// requests authenticate with "X-API-Key: <key>" or a bearer token.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/gateway"
	"repro/internal/store"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "clrearlygw:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("clrearlygw", flag.ContinueOnError)
	addr := fs.String("addr", ":8081", "listen address")
	tenantsFile := fs.String("tenants", "", "tenant config file (JSON); required")
	workerToken := fs.String("worker-token", "", "bearer token workers must present on the lease API; empty = open")
	storeDir := fs.String("store", "", "durable store directory (empty = in-memory only)")
	fsyncMode := fs.String("fsync", "always", "store fsync policy: always, interval or never")
	queueCap := fs.Int("queue", 256, "fleet-wide queued-job capacity; beyond it submissions get 429")
	cacheCap := fs.Int("cache", 256, "gateway-local LRU front-cache capacity")
	leaseTTL := fs.Duration("lease-ttl", 15*time.Second, "lease lifetime without renewal")
	maxDeliveries := fs.Int("max-deliveries", 5, "lease deliveries before a job is failed")
	probeEvery := fs.Duration("probe-every", 5*time.Second, "worker /healthz probe period (negative = disabled)")
	maxBody := fs.Int64("max-body", 1<<20, "tenant request body size cap in bytes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *tenantsFile == "" {
		return errors.New("no -tenants file; the gateway refuses to run without admission control")
	}
	raw, err := os.ReadFile(*tenantsFile)
	if err != nil {
		return err
	}
	tenants, err := gateway.ParseTenants(raw)
	if err != nil {
		return fmt.Errorf("%s: %w", *tenantsFile, err)
	}

	cfg := gateway.Config{
		Tenants:       tenants,
		WorkerToken:   *workerToken,
		QueueCap:      *queueCap,
		CacheCap:      *cacheCap,
		LeaseTTL:      *leaseTTL,
		MaxDeliveries: *maxDeliveries,
		ProbeEvery:    *probeEvery,
		MaxBodyBytes:  *maxBody,
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
		log.Printf("store %s opened (fsync=%s): %d jobs (%d pending), %d results",
			*storeDir, policy, stats.Jobs, stats.PendingJobs, stats.Results)
	}

	gw, err := gateway.New(cfg)
	if err != nil {
		return err
	}
	defer gw.Close()
	hs := &http.Server{Handler: gw}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("clrearlygw listening on %s (tenants=%d queue=%d lease-ttl=%s)",
			ln.Addr(), len(tenants), *queueCap, *leaseTTL)
		errc <- hs.Serve(ln)
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Printf("shutting down")
	shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("http shutdown: %v", err)
	}
	log.Printf("clrearlygw stopped")
	return nil
}

// Command wasai-serve is the crash-safe analysis daemon: an HTTP/JSON
// service that runs WASAI fuzzing campaigns submitted as jobs, journals
// every accepted job and every completed contract to crash-safe WALs,
// and resumes interrupted work byte-identically after a kill. See
// internal/serve for the API and durability contract.
//
// Usage:
//
//	wasai-serve -addr :8743 -data /var/lib/wasai [-store /var/cache/wasai]
//
// Submit a job:
//
//	curl -d '{"tenant":"t1","contracts":24,"seed":7}' localhost:8743/jobs
//
// SIGTERM/SIGINT drain gracefully: admission stops (readyz goes 503, new
// submissions get 503), running campaigns finish and checkpoint, then the
// process exits. SIGKILL is the crash case the journals exist for — the
// next start re-queues interrupted jobs and resumes their campaigns.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8743", "listen address")
		dataDir    = flag.String("data", "", "data directory for the job registry WAL and per-job campaign journals (required)")
		storeDir   = flag.String("store", "", "durable memo-store directory shared across processes and restarts (empty = no disk store)")
		storeMax   = flag.Int64("store-max-bytes", 0, "disk store eviction budget in bytes (0 = default 64 MiB)")
		maxRunning = flag.Int("max-running", 2, "concurrently running jobs across all tenants")
		tenantRun  = flag.Int("tenant-running", 1, "concurrently running jobs per tenant")
		tenantQ    = flag.Int("tenant-queue", 8, "queued jobs per tenant before submissions shed with 429")
		retryAfter = flag.Duration("retry-after", 5*time.Second, "Retry-After hint on 429 responses")
		sync       = flag.Int("journal-sync", 0, "campaign journal fsync policy: every N records (0 = default, 1 = every record, negative = never)")
		addrFile   = flag.String("addr-file", "", "write the bound listen address to this file once serving (for test harnesses)")
	)
	flag.Parse()
	if *dataDir == "" {
		fmt.Fprintln(os.Stderr, "wasai-serve: -data is required")
		flag.Usage()
		os.Exit(2)
	}

	srv, err := serve.New(serve.Config{
		DataDir: *dataDir,
		Limits: serve.Limits{
			MaxRunning:       *maxRunning,
			TenantMaxRunning: *tenantRun,
			TenantMaxQueued:  *tenantQ,
			RetryAfter:       *retryAfter,
		},
		StoreDir:      *storeDir,
		StoreMaxBytes: *storeMax,
		JournalSync:   *sync,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "wasai-serve: %v\n", err)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wasai-serve: listen: %v\n", err)
		os.Exit(1)
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "wasai-serve: addr file: %v\n", err)
			os.Exit(1)
		}
	}
	httpSrv := serve.NewHTTPServer(srv.Handler())
	httpErr := make(chan error, 1)
	go func() { httpErr <- httpSrv.Serve(ln) }()
	fmt.Printf("wasai-serve: listening on %s (data %s)\n", ln.Addr(), *dataDir)

	// Scheduler runs until the signal context cancels, then drains.
	runErr := srv.Run(ctx)

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	httpSrv.Shutdown(shutdownCtx)
	if err := <-httpErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "wasai-serve: http: %v\n", err)
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "wasai-serve: %v\n", runErr)
		os.Exit(1)
	}
	fmt.Println("wasai-serve: drained")
}

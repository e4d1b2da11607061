// Command scatterd is the crash-safe scatter-planning daemon: a
// long-lived HTTP service around the incremental solver engine with
// admission control, a durable write-ahead plan store, and graceful
// drain on SIGTERM.
//
//	scatterd -addr :9444 -wal plans.wal
//
// Endpoints:
//
//	POST /v1/plan   {"platform": {...}, "items": N}  -> distribution
//	GET  /healthz   liveness (503 while draining)
//	GET  /statsz    engine + admission counters
//
// The engine runs the exact policy, and every engine answer is
// Algorithm 2's bit for bit, so every fingerprintable plan the daemon
// solves is made durable in the WAL.
//
// On startup the daemon replays the WAL, logging how many plans it
// recovered and whether a torn tail was truncated; on SIGINT/SIGTERM
// it drains in-flight solves, compacts the WAL, and exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/store"
)

func main() {
	var (
		addr     = flag.String("addr", ":9444", "listen address")
		walPath  = flag.String("wal", "plans.wal", "durable plan store path (empty disables persistence)")
		queue    = flag.Int("queue", 64, "admission queue depth")
		workers  = flag.Int("workers", 4, "solver worker pool size")
		cache    = flag.Int("cache", 0, "engine plan-cache capacity (0 = default)")
		timeout  = flag.Duration("timeout", 2*time.Minute, "default per-request solve deadline (0 = none)")
		maxT     = flag.Duration("max-timeout", 5*time.Minute, "cap on client-requested deadlines")
		maxItems = flag.Int("max-items", 10_000_000, "largest admissible item count")
	)
	flag.Parse()
	eng := core.NewEngine(*cache)
	if err := run(*addr, *walPath, *queue, *workers, eng, *timeout, *maxT, *maxItems); err != nil {
		fmt.Fprintln(os.Stderr, "scatterd:", err)
		os.Exit(1)
	}
}

func run(addr, walPath string, queue, workers int, eng *core.Engine, timeout, maxT time.Duration, maxItems int) error {
	logger := log.New(os.Stderr, "scatterd: ", log.LstdFlags)

	var st *store.Store
	if walPath != "" {
		var info store.RecoveryInfo
		var err error
		st, info, err = store.Open(walPath)
		if err != nil {
			return fmt.Errorf("open plan store %s: %w", walPath, err)
		}
		defer st.Close()
		switch {
		case info.Reset:
			logger.Printf("plan store %s: unreadable header, reset empty", walPath)
		case info.TornBytes > 0:
			logger.Printf("plan store %s: recovered %d plans, truncated %d torn bytes", walPath, info.Entries, info.TornBytes)
		default:
			logger.Printf("plan store %s: recovered %d plans cleanly", walPath, info.Entries)
		}
	}

	srv := serve.NewServer(serve.Config{
		Engine:         eng,
		Store:          st,
		QueueDepth:     queue,
		Workers:        workers,
		DefaultTimeout: timeout,
		MaxTimeout:     maxT,
		MaxItems:       maxItems,
	})

	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      maxT + 30*time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Printf("serving on %s (queue %d, workers %d)", addr, queue, workers)

	select {
	case err := <-errc:
		return fmt.Errorf("listen on %s: %w", addr, err)
	case <-ctx.Done():
	}
	logger.Printf("signal received; draining")

	// Order matters: Drain first so in-flight handlers get answers and
	// no new solves are admitted, then Shutdown to let those handlers
	// flush their responses, then compact and close the WAL.
	srv.Drain()
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		logger.Printf("http shutdown: %v", err)
	}
	if st != nil {
		if err := st.Compact(); err != nil {
			logger.Printf("compact plan store: %v", err)
		}
		if err := st.Close(); err != nil {
			logger.Printf("close plan store: %v", err)
		}
	}
	stats := srv.Stats()
	logger.Printf("drained: %d planned, %d store hits, %d shed", stats.Planned, stats.StoreHits, stats.ShedQueueFull+stats.ShedExpired+stats.ShedDraining)
	return nil
}

// Command nadroid-serve runs the nAdroid analysis pipeline as an HTTP
// service: a bounded worker pool drains a FIFO job queue, results are
// memoized in a content-addressed LRU cache, and every job carries a
// cancelable deadline so abandoned requests stop burning CPU. See
// internal/server for the API.
//
// Usage:
//
//	nadroid-serve [-addr :8372] [-workers 4] [-queue 64] [-cache 256] [-timeout 2m]
//	              [-store-dir DIR] [-store-max-runs 32] [-store-max-age 720h]
//
// With -store-dir, every completed analysis is persisted to a
// content-addressed on-disk store: restarts warm-start the result cache
// from it, GET /v1/apps/{app}/runs lists an app's analysis history, and
// GET /v1/apps/{app}/diff reports the new/fixed/persisting warning
// delta between runs (suppressing baselined warnings).
//
// Example session:
//
//	curl -s localhost:8372/v1/apps
//	curl -s -X POST localhost:8372/v1/analyze -d '{"app":"ConnectBot"}'
//	curl -s -X POST 'localhost:8372/v1/analyze?async=true' -d '{"app":"FireFox","options":{"validate":true}}'
//	curl -s localhost:8372/v1/jobs/job-00000002
//	curl -s localhost:8372/metrics
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"nadroid/internal/server"
	"nadroid/internal/store"
)

func main() {
	var (
		addr      = flag.String("addr", ":8372", "listen address")
		workers   = flag.Int("workers", 4, "concurrent analysis workers")
		pipeline  = flag.Int("pipeline-workers", 0, "per-job validation sweep bound: warnings validated concurrently (0 = NumCPU/workers)")
		queue     = flag.Int("queue", 64, "job queue depth (FIFO)")
		cache     = flag.Int("cache", 256, "result cache capacity (entries, LRU)")
		timeout   = flag.Duration("timeout", 2*time.Minute, "default per-job deadline (0 disables)")
		drain     = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")
		pprofFlag = flag.Bool("pprof", false, "expose the Go profiler at /debug/pprof/ (do not enable on untrusted networks)")
		logJSON   = flag.Bool("log-json", false, "emit logs as JSON lines instead of text")
		storeDir  = flag.String("store-dir", "", "persist analysis runs under this directory (enables run history + diff endpoints)")
		storeMax  = flag.Int("store-max-runs", 32, "runs kept per app by store GC (0 = unlimited)")
		storeAge  = flag.Duration("store-max-age", 30*24*time.Hour, "store GC expires runs older than this (0 = never)")
	)
	flag.Parse()

	var handler slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	}
	logger := slog.New(handler)

	var st *store.Store
	if *storeDir != "" {
		var err error
		st, err = store.Open(*storeDir, store.Options{
			MaxRunsPerApp: *storeMax,
			MaxAge:        *storeAge,
			Logger:        logger,
		})
		if err != nil {
			logger.Error("opening store", "dir", *storeDir, "error", err)
			os.Exit(1)
		}
		if removed := st.GC(time.Now()); removed > 0 {
			logger.Info("store gc", "removed", removed)
		}
		// Long-lived services keep the store bounded without restarts.
		go func() {
			for range time.Tick(time.Hour) {
				st.GC(time.Now())
			}
		}()
	}

	srv := server.New(server.Config{
		Workers:         *workers,
		PipelineWorkers: *pipeline,
		QueueDepth:      *queue,
		CacheEntries:    *cache,
		DefaultTimeout:  *timeout,
		EnablePprof:     *pprofFlag,
		Logger:          logger,
		Store:           st,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: srv}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("listening", "addr", *addr, "workers", *workers, "queue", *queue,
		"cache", *cache, "pprof", *pprofFlag)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		logger.Error("serve failed", "error", err)
		os.Exit(1)
	case sig := <-sigc:
		logger.Info("draining in-flight jobs", "signal", sig.String(), "budget", drain.String())
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	_ = httpSrv.Shutdown(ctx) // stop intake first
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "nadroid-serve: drain incomplete: %v\n", err)
		os.Exit(1)
	}
	logger.Info("drained; bye")
}

// Command bsmpd serves the scheme registry and the closed-form Theorem 1
// bounds over HTTP JSON. Endpoints:
//
//	POST /v1/run       run a simulation (cached, pooled, validated;
//	                   ?trace=1 returns the span timeline inline)
//	POST /v1/sweep     evaluate a parameter grid server-side, streaming
//	                   NDJSON rows as points complete (?trace=1 merges
//	                   per-row spans under one sweep root)
//	GET  /v1/bounds    closed-form Theorem 1 quantities
//	GET  /v1/schemes   scheme registry listing
//	GET  /v1/runs      run registry listing (live + recent completed;
//	                   ?state=&scheme=&source=&limit=&offset=)
//	GET  /v1/runs/{id}         one full run record incl. span tree
//	GET  /v1/runs/{id}/events  SSE lifecycle stream of one run
//	GET  /healthz      liveness (503 while draining)
//	GET  /metrics      counters, gauges and histogram snapshots as JSON
//	GET  /metrics.prom the same metrics in Prometheus text format
//
// Invalid parameter tuples get structured 400s with the typed ParamError;
// load beyond the worker pool's queue gets 429; SIGINT/SIGTERM triggers a
// graceful drain. Lifecycle and per-request access records are JSON
// (log/slog) on stderr; -debug-addr exposes net/http/pprof on a separate
// listener. See README.md "Running the daemon".
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bsmp/internal/serve"
)

func main() {
	var cfg serve.Config
	flag.StringVar(&cfg.Addr, "addr", ":8080", "listen address")
	flag.IntVar(&cfg.Workers, "workers", 0, "concurrent simulation workers, sweep replay helpers included (0 = GOMAXPROCS)")
	flag.IntVar(&cfg.QueueDepth, "queue", 64, "queued requests beyond running ones before 429")
	flag.IntVar(&cfg.CacheEntries, "cache", 512, "result cache entries (negative disables)")
	flag.DurationVar(&cfg.RequestTimeout, "timeout", 30*time.Second, "per-request simulation deadline")
	flag.IntVar(&cfg.MaxN, "max-n", 1<<16, "largest accepted machine volume n")
	flag.IntVar(&cfg.MaxM, "max-m", 1<<12, "largest accepted memory density m")
	flag.IntVar(&cfg.MaxSteps, "max-steps", 1<<12, "largest accepted step count")
	flag.IntVar(&cfg.MemoCapacity, "memo-cap", 0, "unified memo store entry bound (kernels + subtree records); 0 = library default, negative disables memoization")
	flag.IntVar(&cfg.MaxSweepPoints, "max-sweep-points", 4096, "largest grid one /v1/sweep may expand to")
	flag.IntVar(&cfg.SweepParallel, "sweep-parallel", 0, "pool slots all concurrent sweeps combined may occupy at once, a replay's helper taking one slot and one worker (0 = workers)")
	flag.IntVar(&cfg.RegistryCapacity, "registry-cap", 0, "completed run records the /v1/runs flight recorder retains (0 = default 256)")
	drain := flag.Duration("drain", 30*time.Second, "graceful shutdown budget")
	debugAddr := flag.String("debug-addr", "", "listen address for net/http/pprof (empty = disabled)")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "bsmpd: bad -log-level %q: %v\n", *logLevel, err)
		os.Exit(2)
	}
	logger := slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	cfg.Logger = logger

	// The profiling surface stays off the service listener: it is
	// operator-only, so it binds its own (typically loopback) address and
	// never reaches the request middleware or the public port.
	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			logger.Info("debug listener", "addr", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, dmux); err != nil {
				logger.Error("debug listener failed", "err", err.Error())
			}
		}()
	}

	s := serve.New(cfg)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- s.ListenAndServe() }()
	logger.Info("listening", "addr", cfg.Addr)
	fmt.Printf("bsmpd listening on %s\n", cfg.Addr)

	select {
	case err := <-errc:
		if err != nil {
			logger.Error("serve failed", "err", err.Error())
			os.Exit(1)
		}
		return
	case <-ctx.Done():
	}
	stop()
	logger.Info("draining", "budget", drain.String())
	sctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := s.Shutdown(sctx); err != nil {
		logger.Error("shutdown failed", "err", err.Error())
		os.Exit(1)
	}
	logger.Info("drained cleanly")
}

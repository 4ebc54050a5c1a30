// Command dpu-gateway is the sharded serving front: it consistent-hashes
// each request graph's fingerprint across N dpu-serve backends, so every
// backend's compile cache stays hot for its own shard — horizontal scale that preserves the compile-once/execute-many
// economics instead of multiplying cold compiles by the fleet size.
//
//	POST /execute   routed to the fingerprint's shard owner; hedged to
//	                the next ring owner past the p99-derived delay, and
//	                failed over on connect errors / draining backends
//	GET  /stats     fleet view: per-backend engine/sched/http sections
//	                merged (histograms merged bucket-wise, never averaged
//	                quantiles) plus the per-backend breakdown and the
//	                gateway's own routing counters
//	GET  /healthz   200 while at least one backend is live
//
// Backends are polled at /healthz every -health-interval: a draining
// backend (503, what dpu-serve answers during graceful shutdown) leaves
// the ring and only its shard ranges remap to their ring successors.
// Point the whole fleet at one shared -artifact-dir so any backend —
// including a failover target — warm-starts a shard's programs from the
// store instead of recompiling them:
//
//	dpu-serve -addr :9001 -artifact-dir /var/lib/dpu/store &
//	dpu-serve -addr :9002 -artifact-dir /var/lib/dpu/store &
//	dpu-gateway -addr :8080 \
//	    -backends http://localhost:9001,http://localhost:9002
//
// SIGINT/SIGTERM drain gracefully under -drain-timeout (a second signal
// forces exit), mirroring dpu-serve.
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dpuv2/internal/gateway"
	"dpuv2/internal/serve"
	"dpuv2/internal/trace"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	backends := flag.String("backends", "", "comma-separated dpu-serve base URLs (required)")
	vnodes := flag.Int("vnodes", gateway.DefaultVNodes, "virtual nodes per backend on the hash ring")
	healthInterval := flag.Duration("health-interval", time.Second, "backend /healthz polling period")
	requestTimeout := flag.Duration("request-timeout", 30*time.Second, "bound on one proxied attempt to one backend")
	hedgeMin := flag.Duration("hedge-min", 2*time.Millisecond, "lower clamp on the p99-derived hedge delay")
	hedgeMax := flag.Duration("hedge-max", 500*time.Millisecond, "upper clamp on the p99-derived hedge delay (used until enough samples)")
	noHedge := flag.Bool("no-hedge", false, "disable hedged retries (failover on hard errors remains)")
	readTimeout := flag.Duration("read-timeout", serve.DefaultReadTimeout, "close a client connection that has not finished sending its request by then")
	idleTimeout := flag.Duration("idle-timeout", serve.DefaultIdleTimeout, "reclaim idle keep-alive client connections after this long")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "bound on the whole shutdown sequence")
	traceSample := flag.Int("trace-sample", trace.DefaultSampleEvery, "trace 1 in N requests arriving without a traceparent header (0: never; requests carrying the header are always traced)")
	traceSlow := flag.Duration("trace-slow", trace.DefaultSlowThreshold, "retain traces at least this slow in the slow-trace reservoir (GET /traces)")
	debugAddr := flag.String("debug-addr", "", "pprof listen address (e.g. localhost:6061); empty disables. Always a separate listener — the serving port never exposes /debug/pprof")
	flag.Parse()

	var addrs []string
	for _, a := range strings.Split(*backends, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		log.Fatal("dpu-gateway: -backends is required (comma-separated dpu-serve URLs)")
	}
	sampleEvery := *traceSample
	if sampleEvery <= 0 {
		sampleEvery = -1 // 0 on the flag means "never sample", not "default"
	}
	gw, err := gateway.New(gateway.Options{
		Backends:       addrs,
		VNodes:         *vnodes,
		HealthInterval: *healthInterval,
		RequestTimeout: *requestTimeout,
		HedgeMin:       *hedgeMin,
		HedgeMax:       *hedgeMax,
		DisableHedge:   *noHedge,
		Trace: trace.Options{
			SampleEvery:   sampleEvery,
			SlowThreshold: *traceSlow,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	hs := serve.NewHTTPServer(*addr, gw.Handler(), *readTimeout, *idleTimeout)
	if *debugAddr != "" {
		ds := serve.NewDebugServer(*debugAddr)
		go func() {
			if err := ds.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("dpu-gateway: debug listener: %v", err)
			}
		}()
		log.Printf("dpu-gateway: pprof debug listener on %s (separate from the serving port)", *debugAddr)
	}

	done := make(chan struct{})
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		log.Printf("dpu-gateway: %v, draining (bounded by %v; second signal forces exit)", sig, *drainTimeout)
		go func() {
			sig := <-sigc
			log.Printf("dpu-gateway: second %v, forcing immediate exit", sig)
			os.Exit(1)
		}()
		deadline := time.Now().Add(*drainTimeout)
		ok := serve.DrainWithin(*drainTimeout,
			gw.Drain, // healthz flips 503, new requests rejected
			gw.Close, // health checker stops
		)
		if !ok {
			log.Printf("dpu-gateway: drain did not complete within %v, exiting anyway", *drainTimeout)
			hs.Close()
			close(done)
			return
		}
		ctx, cancel := context.WithDeadline(context.Background(), deadline)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			log.Printf("dpu-gateway: shutdown: %v", err)
			hs.Close()
		}
		close(done)
	}()

	log.Printf("dpu-gateway listening on %s over %d backends (vnodes=%d health-interval=%v hedge=[%v,%v] hedging=%v)",
		*addr, len(addrs), *vnodes, *healthInterval, *hedgeMin, *hedgeMax, !*noHedge)
	if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
	<-done
}

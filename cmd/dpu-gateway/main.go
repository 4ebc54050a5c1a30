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
// Hedge delays are clamped to [2ms, 500ms] and one proxied attempt is
// bounded at 30s, constants of package gateway. SIGINT/SIGTERM drain
// through serve.Run exactly as in dpu-serve: exit 0 after a complete
// drain, non-zero when it misses serve.DrainTimeout or an address is
// taken, and a second signal kills the process.
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dpuv2/internal/gateway"
	"dpuv2/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	backends := flag.String("backends", "", "comma-separated dpu-serve base URLs (required)")
	healthInterval := flag.Duration("health-interval", time.Second, "backend /healthz polling period")
	noHedge := flag.Bool("no-hedge", false, "disable hedged retries (failover on hard errors remains)")
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
	gw, err := gateway.New(gateway.Options{
		Backends:       addrs,
		HealthInterval: *healthInterval,
		DisableHedge:   *noHedge,
	})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("dpu-gateway: %d backends (health-interval=%v hedging=%v)", len(addrs), *healthInterval, !*noHedge)

	// The first signal starts the drain; stopping the notification then
	// restores the default action, so a second signal kills the process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, stop)
	if err := serve.Run(ctx, "dpu-gateway", *addr, *debugAddr, gw.Handler(),
		gw.Drain, // healthz flips 503, new requests rejected
		gw.Close, // health checker stops
	); err != nil {
		log.Fatal(err)
	}
}

// Command dpu-serve exposes the compile-once/execute-many serving engine
// over HTTP: many clients submit the same few graphs with different
// inputs, the engine compiles each graph once, and the scheduler bounds
// admitted work and runs each request's vectors in batches. The handler
// and its API (POST /execute, GET /stats, /metrics, /traces, /healthz)
// are package internal/serve, run with the zero serve.Options defaults;
// DESIGN.md has the usage.
//
// -artifact-dir makes compilation an offline step: every .dpuprog
// artifact in the directory is preloaded into the compile cache at
// boot, so a restarted server's first request never compiles, and
// every compilation the server does perform is persisted back, off the
// request path. Populate it with `dpu-compile -o <dir>/name.dpuprog`,
// or let a previous run fill it. The hardware configuration is the
// request's "config" (default the paper's min-EDP point); choose one
// offline with `dpu-figures -exp fig11`, as the paper's §V does.
//
// serve.Run owns listening and shutdown: SIGINT/SIGTERM drain in-flight
// requests and flush the store under one serve.DrainTimeout deadline.
// The process exits 0 after a complete drain and non-zero when the
// deadline passes or an address is taken; a second signal kills it.
//
//	dpu-serve -addr :8080 -cache 256 -artifact-dir /var/lib/dpu/artifacts &
//	curl -s localhost:8080/execute -d '{
//	  "graph": "input\ninput\nadd 0 1\nconst 3\nmul 2 3",
//	  "inputs": [[2,5],[1,1]]}'
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"

	"dpuv2/internal/artifact"
	"dpuv2/internal/engine"
	"dpuv2/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	cache := flag.Int("cache", 128, "compile-cache capacity (programs)")
	artifactDir := flag.String("artifact-dir", "", "persistent compiled-program store: preload .dpuprog artifacts at boot, persist new ones")
	debugAddr := flag.String("debug-addr", "", "pprof listen address (e.g. localhost:6060); empty disables. Always a separate listener — the serving port never exposes /debug/pprof")
	flag.Parse()

	var store *artifact.Store
	if *artifactDir != "" {
		var err error
		if store, err = artifact.Open(*artifactDir); err != nil {
			log.Fatal(err)
		}
	}
	eng := engine.New(engine.Options{CacheSize: *cache, Store: store})
	if store != nil {
		n, err := eng.Preload()
		if err != nil {
			log.Fatalf("dpu-serve: warm-start: %v", err)
		}
		s := eng.Stats()
		if s.StoreErrors > 0 {
			log.Printf("dpu-serve: warm-start skipped %d undecodable artifacts in %s", s.StoreErrors, *artifactDir)
		}
		if s.StoreStale > 0 {
			log.Printf("dpu-serve: warm-start skipped %d artifacts of another compiler revision in %s", s.StoreStale, *artifactDir)
		}
		if s.VerifyRejects > 0 {
			log.Printf("dpu-serve: warm-start purged %d artifacts that failed static verification in %s (run dpu-vet for details)", s.VerifyRejects, *artifactDir)
		}
		log.Printf("dpu-serve: warm-started %d compiled programs from %s", n, *artifactDir)
	}
	srv := serve.New(eng, serve.Options{})

	// The first signal starts the drain; stopping the notification then
	// restores the default action, so a second signal kills the process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, stop)
	if err := serve.Run(ctx, "dpu-serve", *addr, *debugAddr, srv.Handler(),
		srv.Drain, // in-flight requests finish; new ones get 503
		eng.Flush, // async artifact persists land before exit
	); err != nil {
		log.Fatal(err)
	}
}

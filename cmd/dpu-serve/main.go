// Command dpu-serve exposes the compile-once/execute-many serving engine
// over HTTP — the deployment shape of the ROADMAP's "heavy traffic"
// north star: many clients submit the same few graphs with different
// inputs, the engine compiles each graph once, and the scheduler
// (internal/sched) bounds admitted work and runs each request's vectors
// in batches on the engine.
//
// API (see internal/serve for the handler):
//
//	POST /execute
//	    {"graph": "<node-list text>",          // dag.Read format
//	     "config": {"D":3,"B":64,"R":32},      // omitted/zero → min-EDP
//	     "options": {"Seed":1},                // compiler options, optional
//	     "inputs": [[...], [...], ...]}        // one vector per execution
//	  → {"fingerprint": "...", "sinks": [...], "compile": {...},
//	     "batched": true,
//	     "results": [{"outputs":[...], "cycles": n} | {"error": "..."}]}
//
//	GET /stats    → engine + scheduler + HTTP counters (queue depth,
//	                batch-size histogram, p50/p95/p99 latency)
//	GET /healthz  → 200 ok (503 while draining)
//
// Every request goes through the scheduler, which needs no tuning: a
// request executes at once on its own handler goroutine, its vectors
// cut into batches of at most -max-batch, and -queue-depth bounds the
// vectors admitted at any moment. SIGINT/SIGTERM drain gracefully:
// in-flight requests complete, new ones are answered 503 until the listener
// closes. The whole drain sequence (including background tunes and
// store flushes) runs under the single -drain-timeout deadline, and a
// second signal forces immediate exit. Connections are hardened against
// stalled clients: -read-timeout bounds how long a request may take to
// arrive, -idle-timeout reclaims idle keep-alives.
//
// -artifact-dir makes compilation a true offline step: the directory is
// opened as a content-addressed store of .dpuprog artifacts
// (internal/artifact), every artifact in it is preloaded into the
// compile cache at boot — so a restarted server's first request never
// compiles — and every compilation the server does perform is persisted
// back, off the request path. Populate the directory ahead of time with
// `dpu-compile -o <dir>/name.dpuprog`, or simply let a previous run of
// the server fill it. /stats reports store hits/misses/preloads under
// "engine".
//
// -autotune closes the loop from the paper's design-space exploration to
// the serving path: each graph fingerprint is served on the hardware
// configuration the DSE says is best for it. Decisions come from
// `.dputune` records in -artifact-dir (produced offline by `dpu-tune
// -store <dir>` and preloaded at boot) or, for fingerprints with no
// stored decision, from an in-process background tune bounded by
// -tune-budget: the first requests run on the submitted config while the
// sweep runs off the request path, then traffic atomically switches to
// the winner (which is also persisted, with its pre-compiled program,
// for the next restart). A tuned config must beat the config it was
// tuned against (the one submitted at first sight) by ≥1% on
// -tune-metric or the decision pins that default — relative to it,
// autotuning never makes the workload slower. A decision is per graph
// fingerprint and overrides the config of every later request for that
// graph; clients that need their exact config honored should be served
// without -autotune. /stats reports the decision table, tuned hits and
// in-flight tunes under "tune". -tune-search anneal makes background
// tunes run simulated annealing over the enlarged config space (RNG
// seeded by -tune-seed, deterministic at any worker count) instead of
// the fixed grid; either way the decision's provenance records the
// search that produced it.
//
// Example:
//
//	dpu-serve -addr :8080 -cache 256 -max-batch 32 \
//	          -artifact-dir /var/lib/dpu/artifacts &
//	curl -s localhost:8080/execute -d '{
//	  "graph": "input\ninput\nadd 0 1\nconst 3\nmul 2 3",
//	  "inputs": [[2,5],[1,1]]}'
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dpuv2/internal/artifact"
	"dpuv2/internal/dse"
	"dpuv2/internal/engine"
	"dpuv2/internal/sched"
	"dpuv2/internal/serve"
	"dpuv2/internal/trace"
	"dpuv2/internal/tune"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	cache := flag.Int("cache", 128, "compile-cache capacity (programs)")
	workers := flag.Int("workers", 0, "batch worker pool size (0: one per CPU)")
	maxBatch := flag.Int("max-batch", 32, "run a request's input vectors on the engine in batches of at most this many")
	queueDepth := flag.Int("queue-depth", 4096, "admitted-but-unfinished executions before 429s")
	maxInputs := flag.Int("max-inputs", 1024, "input vectors allowed per request before 413s")
	artifactDir := flag.String("artifact-dir", "", "persistent compiled-program store: preload .dpuprog artifacts and .dputune decisions at boot, persist new ones")
	autotune := flag.Bool("autotune", false, "serve each graph fingerprint on its tuned config (stored .dputune decisions; unseen fingerprints tune in the background)")
	tuneBudget := flag.Duration("tune-budget", 30*time.Second, "wall-clock budget per background tune (with -autotune)")
	tuneMetric := flag.String("tune-metric", "latency", "background-tune optimization target: latency, energy or edp")
	tuneSearch := flag.String("tune-search", "grid", "background-tune candidate search: grid (the 48-point sweep) or anneal (annealing over the enlarged space)")
	tuneSeed := flag.Int64("tune-seed", 0, "anneal RNG seed for -tune-search anneal (recorded in decision provenance)")
	readTimeout := flag.Duration("read-timeout", serve.DefaultReadTimeout, "close a connection that has not finished sending its request by then (slow-loris bound)")
	idleTimeout := flag.Duration("idle-timeout", serve.DefaultIdleTimeout, "reclaim idle keep-alive connections after this long")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "bound on the whole shutdown sequence (drain, background tunes, store flush, listener close)")
	traceSample := flag.Int("trace-sample", trace.DefaultSampleEvery, "trace 1 in N requests arriving without a traceparent header (0: never; requests carrying the header are always traced)")
	traceSlow := flag.Duration("trace-slow", trace.DefaultSlowThreshold, "retain traces at least this slow in the slow-trace reservoir (GET /traces)")
	debugAddr := flag.String("debug-addr", "", "pprof listen address (e.g. localhost:6060); empty disables. Always a separate listener — the serving port never exposes /debug/pprof")
	flag.Parse()

	var store *artifact.Store
	if *artifactDir != "" {
		var err error
		if store, err = artifact.Open(*artifactDir); err != nil {
			log.Fatal(err)
		}
	}
	var tuner engine.Tuner
	if *autotune {
		var metric dse.Metric
		if err := metric.ParseMetric(*tuneMetric); err != nil {
			log.Fatal(err)
		}
		var search tune.SearchKind
		if err := search.Parse(*tuneSearch); err != nil {
			log.Fatal(err)
		}
		tuner = tune.New(tune.Options{Metric: metric, Budget: *tuneBudget,
			Search: search, Anneal: dse.AnnealOptions{Seed: *tuneSeed}})
	}
	eng := engine.New(engine.Options{CacheSize: *cache, Workers: *workers,
		Store: store, AutoTune: *autotune, Tuner: tuner})
	if store != nil {
		n, err := eng.Preload()
		if err != nil {
			log.Fatalf("dpu-serve: warm-start: %v", err)
		}
		s := eng.Stats()
		if s.StoreErrors > 0 {
			log.Printf("dpu-serve: warm-start skipped %d undecodable artifacts in %s", s.StoreErrors, *artifactDir)
		}
		if s.VerifyRejects > 0 {
			log.Printf("dpu-serve: warm-start purged %d artifacts that failed static verification in %s (run dpu-vet for details)", s.VerifyRejects, *artifactDir)
		}
		log.Printf("dpu-serve: warm-started %d compiled programs and %d tuning decisions from %s", n, eng.TuneStats().StoreTuned, *artifactDir)
	}
	sampleEvery := *traceSample
	if sampleEvery <= 0 {
		sampleEvery = -1 // 0 on the flag means "never sample", not "default"
	}
	srv := serve.New(eng, serve.Options{
		Sched: sched.Options{
			MaxBatch:   *maxBatch,
			QueueDepth: *queueDepth,
		},
		MaxInputsPerRequest: *maxInputs,
		Trace: trace.Options{
			SampleEvery:   sampleEvery,
			SlowThreshold: *traceSlow,
		},
	})
	hs := serve.NewHTTPServer(*addr, srv.Handler(), *readTimeout, *idleTimeout)
	if *debugAddr != "" {
		ds := serve.NewDebugServer(*debugAddr)
		go func() {
			if err := ds.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("dpu-serve: debug listener: %v", err)
			}
		}()
		log.Printf("dpu-serve: pprof debug listener on %s (separate from the serving port)", *debugAddr)
	}

	done := make(chan struct{})
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		log.Printf("dpu-serve: %v, draining (bounded by %v; second signal forces exit)", sig, *drainTimeout)
		// A second signal must not wait on a wedged drain: force exit.
		go func() {
			sig := <-sigc
			log.Printf("dpu-serve: second %v, forcing immediate exit", sig)
			os.Exit(1)
		}()
		// The WHOLE sequence shares one deadline — a wedged background
		// tune or a store flush on a dead disk must not block exit.
		deadline := time.Now().Add(*drainTimeout)
		ok := serve.DrainWithin(*drainTimeout,
			srv.Drain,     // in-flight requests finish; new ones get 503
			eng.WaitTunes, // background tunes publish (and persist) their decisions
			eng.Flush,     // async artifact persists land before exit
		)
		if !ok {
			log.Printf("dpu-serve: drain did not complete within %v, exiting anyway", *drainTimeout)
			hs.Close()
			close(done)
			return
		}
		ctx, cancel := context.WithDeadline(context.Background(), deadline)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			log.Printf("dpu-serve: shutdown: %v", err)
			hs.Close()
		}
		close(done)
	}()

	log.Printf("dpu-serve listening on %s (cache=%d max-batch=%d queue-depth=%d)",
		*addr, *cache, *maxBatch, *queueDepth)
	if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
	<-done
}

package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// A run measures a workload cfg.setups times, each time on a fresh
// system under test — a new dpu-serve process, or on toolchain a newly
// generated workload — and reports, for every metric, the median over
// those repetitions. Run-to-run noise on a small shared box is mostly
// between processes, not within one: two servers started a second apart
// settle at throughputs several percent apart and stay there, so one
// long phase on one server measures that server's luck, and slicing it
// finer does not help. Three short phases on three servers do; they
// also make setup_s a median of three for free.

// repetition is what one fresh system under test yielded.
type repetition struct {
	tally
	e     map[string]float64 // the seven end-to-end metrics
	m     layers             // source A and driver.* metrics
	latMS []float64
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// addRuntime derives the runtime.* metrics from two MemStats samples of
// the system under test taken around a measured phase.
func (m layers) addRuntime(before, after memSample, elapsed time.Duration, reqs, rssMB float64) {
	m["runtime.gc_per_s"] = float64(after.numGC-before.numGC) / elapsed.Seconds()
	m["runtime.mallocs_per_req"] = float64(after.mallocs-before.mallocs) / reqs
	m["runtime.gc_pause_ms_per_s"] = ms(gcPause(before, after)) / elapsed.Seconds()
	m["runtime.rss_peak_mb"] = rssMB
}

// addLatency fills the driver.* latency metrics from sorted per-request
// (or per-job) wall times.
func (m layers) addLatency(lat []float64) {
	m["driver.latency_p90_ms"] = percentile(lat, 90)
	m["driver.latency_p99_ms"] = percentile(lat, 99)
	m["driver.latency_max_ms"] = percentile(lat, 100)
	m["driver.samples"] = float64(len(lat))
}

// serveRepetition starts a fresh dpu-serve, warms it up with the fixed
// request count, measures one closed-loop phase of length dur and stops
// the server. On failed operations it returns early with the tally
// only: there is nothing worth measuring.
func serveRepetition(ctx context.Context, env *environment, cfg config, w *workload, storeDir string, dur time.Duration) (repetition, error) {
	var rep repetition
	t0 := time.Now()
	srv, err := env.start(ctx, w, storeDir)
	if err != nil {
		return rep, err
	}
	defer srv.stop() // idempotent; the success path checks its error below
	drv := newDriver(w, srv, env.Conns)
	warm := drv.run(ctx, cfg.cap(w.warmup), 0)
	setup := time.Since(t0)
	rep.merge(warm.tally)
	if rep.Failed > 0 || ctx.Err() != nil {
		return rep, ctx.Err()
	}
	before, err := srv.sample()
	if err != nil {
		return rep, err
	}
	cpu0 := ownCPU()
	var ph phase
	if cfg.opsCap > 0 {
		ph = drv.run(ctx, cfg.opsCap, 0)
	} else {
		ph = drv.run(ctx, 0, dur)
	}
	clientCPU := ownCPU() - cpu0
	rep.merge(ph.tally)
	if rep.Failed > 0 || ctx.Err() != nil {
		return rep, ctx.Err()
	}
	after, err := srv.sample()
	if err != nil {
		return rep, err
	}
	if err := srv.stop(); err != nil {
		return rep, err
	}

	reqs := float64(ph.Attempted)
	rep.latMS = sorted(ph.latMS)
	rep.e = map[string]float64{
		"setup_s":            setup.Seconds(),
		"throughput_rps":     float64(len(ph.latMS)) / ph.elapsed.Seconds(),
		"latency_p50_ms":     percentile(rep.latMS, 50),
		"cpu_ms_per_req":     ms(after.cpu-before.cpu) / reqs,
		"alloc_kb_per_req":   float64(after.mem.totalAlloc-before.mem.totalAlloc) / 1024 / reqs,
		"payload_kb_per_req": float64(ph.payload) / 1024 / reqs,
		"sim_cycles_per_vec": float64(ph.cycles) / float64(ph.vectors),
	}
	rep.m = layers{}
	rep.m.addLatency(rep.latMS)
	rep.m["driver.client_cpu_ms_per_req"] = ms(clientCPU) / reqs
	// Below about 0.85 the server is not the bottleneck and throughput
	// says more about the driver than about the system under test.
	rep.m["driver.server_util"] = rep.e["cpu_ms_per_req"] * rep.e["throughput_rps"] / 1000 / float64(env.ServerProcs)
	rep.m.addStats(before.stats, after.stats, ph.Attempted)
	rep.m.addRuntime(before.mem, after.mem, ph.elapsed, reqs, after.rssMB)
	return rep, nil
}

// toolchainRepetition is serveRepetition for the in-process workload:
// set-up is graph generation through the warm-up passes, and the system
// under test is this process.
func toolchainRepetition(ctx context.Context, cfg config, name string, dur time.Duration) (repetition, error) {
	var rep repetition
	t0 := time.Now()
	w, err := buildWorkload(name, cfg.seed)
	if err != nil {
		return rep, err
	}
	// Whole passes only, so an operation cap rounds up to passes.
	passes, warmup := 0, w.warmup // 0 passes: run for dur
	if cfg.opsCap > 0 {
		passes = (cfg.opsCap + len(w.jobs) - 1) / len(w.jobs)
		warmup = passes
	}
	warm, err := measureToolchain(ctx, w, 0, warmup)
	setup := time.Since(t0)
	rep.merge(warm.tally)
	if err != nil || rep.Failed > 0 {
		return rep, err
	}
	ph, err := measureToolchain(ctx, w, dur, passes)
	rep.merge(ph.tally)
	if err != nil || rep.Failed > 0 {
		return rep, err
	}
	jobs := float64(ph.Attempted)
	rep.latMS = sorted(ph.latMS)
	thr := float64(len(ph.latMS)) / ph.elapsed.Seconds()
	rep.e = map[string]float64{
		"setup_s":            setup.Seconds(),
		"throughput_rps":     thr,
		"latency_p50_ms":     percentile(rep.latMS, 50),
		"cpu_ms_per_req":     ms(ph.cpu) / jobs,
		"alloc_kb_per_req":   float64(ph.mem[1].TotalAlloc-ph.mem[0].TotalAlloc) / 1024 / jobs,
		"payload_kb_per_req": float64(ph.counts.artifactBytes) / 1024 / jobs,
		"sim_cycles_per_vec": float64(ph.counts.cycles) / float64(ph.counts.vectors),
	}
	rep.m = layers{}
	rep.m.addLatency(rep.latMS)
	// The driver is the system under test here: its CPU is the job's.
	rep.m["driver.client_cpu_ms_per_req"] = rep.e["cpu_ms_per_req"]
	rep.m["driver.server_util"] = rep.e["cpu_ms_per_req"] * thr / 1000
	_, rss, err := procUsage(os.Getpid())
	if err != nil {
		return rep, err
	}
	sample := func(s *runtime.MemStats) memSample {
		return memSample{totalAlloc: s.TotalAlloc, mallocs: s.Mallocs, numGC: uint64(s.NumGC), pauseNs: s.PauseNs[:]}
	}
	rep.m.addRuntime(sample(&ph.mem[0]), sample(&ph.mem[1]), ph.elapsed, jobs, rss)
	return rep, nil
}

// measure runs cfg.setups repetitions of w, each with an equal share of
// cfg.seconds, and returns the per-metric medians. Checked operations
// and failures accumulate in r; with any failure the maps are nil.
func measure(ctx context.Context, env *environment, cfg config, w *workload, dir string, r *result) (map[string]float64, layers, error) {
	dur := cfg.seconds / time.Duration(cfg.setups)
	var reps []repetition
	var pooled []float64
	for i := 0; i < cfg.setups; i++ {
		var rep repetition
		var err error
		if w.serve {
			rep, err = serveRepetition(ctx, env, cfg, w, filepath.Join(dir, fmt.Sprintf("store-%d", i)), dur)
		} else {
			rep, err = toolchainRepetition(ctx, cfg, w.name, dur)
		}
		r.merge(rep.tally)
		if err != nil || r.Failed > 0 {
			return nil, nil, err
		}
		reps = append(reps, rep)
		r.Repetitions = append(r.Repetitions, rep.e)
		pooled = append(pooled, rep.latMS...)
	}
	pooled = sorted(pooled)
	p := tailPercentile(len(pooled))
	r.Tail = tail{Percentile: p, ValueMS: percentile(pooled, p), Samples: len(pooled)}

	over := func(pick func(repetition) map[string]float64) map[string]float64 {
		out := map[string]float64{}
		for k := range pick(reps[0]) {
			var xs []float64
			for _, rep := range reps {
				xs = append(xs, pick(rep)[k])
			}
			out[k] = median(xs)
		}
		return out
	}
	return over(func(rep repetition) map[string]float64 { return rep.e }),
		over(func(rep repetition) map[string]float64 { return rep.m }), nil
}

package dpuv2

// One benchmark per table and figure of the paper's evaluation (§V), each
// delegating to the shared experiment harness in internal/figures at a
// reduced workload scale so `go test -bench=.` stays tractable. Full-size
// runs: `go run ./cmd/dpu-figures -scale 1.0`. Additional micro-benchmarks
// cover the compiler, simulator, instruction codec and the host-parallel
// CPU baseline.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"dpuv2/internal/arch"
	"dpuv2/internal/baseline"
	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
	"dpuv2/internal/dse"
	"dpuv2/internal/engine"
	"dpuv2/internal/figures"
	"dpuv2/internal/pc"
	"dpuv2/internal/sched"
	"dpuv2/internal/sim"
	"dpuv2/internal/sptrsv"
	"dpuv2/internal/trace"
)

func benchConfig() figures.Config {
	return figures.Config{Scale: 0.1, LargeScale: 0.01}
}

// slowExperiments are the sweep-backed figures that take >1 s per
// iteration at the reduced benchmark scale; `go test -short -bench` (as
// CI runs it) skips them.
var slowExperiments = map[string]bool{"fig11": true, "fig12": true}

func runExperiment(b *testing.B, name string) {
	b.Helper()
	if testing.Short() && slowExperiments[name] {
		b.Skipf("%s takes >1s per iteration; skipped in -short mode", name)
	}
	for i := 0; i < b.N; i++ {
		r := figures.NewRunner(benchConfig())
		if _, err := r.Run(name); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1(b *testing.B)    { runExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B)    { runExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B)    { runExperiment(b, "table3") }
func BenchmarkFig1c(b *testing.B)     { runExperiment(b, "fig1c") }
func BenchmarkFig3c(b *testing.B)     { runExperiment(b, "fig3c") }
func BenchmarkFig6e(b *testing.B)     { runExperiment(b, "fig6e") }
func BenchmarkFig10b(b *testing.B)    { runExperiment(b, "fig10b") }
func BenchmarkFig10cd(b *testing.B)   { runExperiment(b, "fig10cd") }
func BenchmarkFig11(b *testing.B)     { runExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)     { runExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)     { runExperiment(b, "fig13") }
func BenchmarkFig14a(b *testing.B)    { runExperiment(b, "fig14a") }
func BenchmarkFig14b(b *testing.B)    { runExperiment(b, "fig14b") }
func BenchmarkProgSize(b *testing.B)  { runExperiment(b, "progsize") }
func BenchmarkFootprint(b *testing.B) { runExperiment(b, "footprint") }

// BenchmarkCompile measures end-to-end compilation speed on a mid-size PC
// (the paper's Table I reports minutes for its Python compiler; the Go
// reimplementation is measured here per op).
func BenchmarkCompile(b *testing.B) {
	g := pc.Build(pc.Suite()[1], 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := compiler.Compile(g, arch.MinEDP(), compiler.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(g.NumNodes()), "nodes/prog")
}

// BenchmarkSimulate measures simulator speed in simulated cycles per
// second of host time, and allocations per run (the exec hot path is
// allocation-free; what remains is Machine construction and result
// readback).
func BenchmarkSimulate(b *testing.B) {
	g := pc.Build(pc.Suite()[1], 0.5)
	c, err := compiler.Compile(g, arch.MinEDP(), compiler.Options{})
	if err != nil {
		b.Fatal(err)
	}
	inputs := make([]float64, len(c.Graph.Inputs()))
	for i := range inputs {
		inputs[i] = 0.5
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(c, inputs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(c.Stats.Cycles), "cycles/run")
}

// BenchmarkMachineRun isolates Machine.Run allocations from the runner's
// result marshalling: machine construction plus the full instruction
// trace, nothing else.
func BenchmarkMachineRun(b *testing.B) {
	g := pc.Build(pc.Suite()[1], 0.5)
	c, err := compiler.Compile(g, arch.MinEDP(), compiler.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := sim.NewMachine(c.Prog.Cfg, c.Prog.InitMem)
		for j, w := range c.InputWord {
			if w >= 0 {
				if err := m.SetMem(w, float64(j)); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := m.Run(c.Prog); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(c.Stats.Cycles), "cycles/run")
}

// engineBenchWorkload is the fig.-scale serving workload shared by the
// engine benchmarks: the same mid-size PC the compiler/simulator
// micro-benchmarks use.
func engineBenchWorkload(b *testing.B) (*dag.Graph, []float64) {
	b.Helper()
	g := pc.Build(pc.Suite()[1], 0.5)
	inputs := make([]float64, len(g.Inputs()))
	for i := range inputs {
		inputs[i] = 0.5
	}
	return g, inputs
}

// BenchmarkEngineSteadyState measures the serving engine's cache-hit
// execute path: the program is compiled once, every iteration runs on a
// pooled, reset machine. Steady state is allocation-free (0 allocs/op);
// the naive_x metric reports the throughput multiple over a naive
// per-request Compile+Execute of the same workload (measured once before
// the timed loop).
func BenchmarkEngineSteadyState(b *testing.B) {
	g, inputs := engineBenchWorkload(b)
	eng := engine.New(engine.Options{})
	c, err := eng.Compile(g, arch.MinEDP(), compiler.Options{})
	if err != nil {
		b.Fatal(err)
	}
	out := make([]float64, len(c.Graph.Outputs()))
	// One naive request for the amortization metric: fresh compile plus
	// fresh-machine execution, what the façade did before the engine.
	naiveStart := time.Now()
	nc, err := compiler.Compile(g, arch.MinEDP(), compiler.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sim.Run(nc, inputs); err != nil {
		b.Fatal(err)
	}
	naive := time.Since(naiveStart)
	// Warm the evaluator free list and lazy caches.
	batch, outs, errs := [][]float64{inputs}, [][]float64{out}, make([]error, 1)
	eng.ExecuteBatchInto(c, batch, outs, nil, errs)
	if errs[0] != nil {
		b.Fatal(errs[0])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.ExecuteBatchInto(c, batch, outs, nil, errs)
		if errs[0] != nil {
			b.Fatal(errs[0])
		}
	}
	b.StopTimer()
	perOp := b.Elapsed() / time.Duration(b.N)
	if perOp > 0 {
		b.ReportMetric(float64(naive)/float64(perOp), "naive_x")
	}
	b.ReportMetric(float64(c.Stats.Cycles), "cycles/run")
}

// BenchmarkEngineNaive is the pre-engine serving path on the same
// workload — compile and a fresh machine for every request — the
// denominator of BenchmarkEngineSteadyState's naive_x.
func BenchmarkEngineNaive(b *testing.B) {
	g, inputs := engineBenchWorkload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := compiler.Compile(g, arch.MinEDP(), compiler.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(c, inputs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineBatch measures batched serving: one compile, B-sized
// input batches fanned over the worker pool onto leased evaluators.
func BenchmarkEngineBatch(b *testing.B) {
	g, inputs := engineBenchWorkload(b)
	eng := engine.New(engine.Options{})
	c, err := eng.Compile(g, arch.MinEDP(), compiler.Options{})
	if err != nil {
		b.Fatal(err)
	}
	const batchSize = 32
	batches := make([][]float64, batchSize)
	outs := make([][]float64, batchSize)
	errs := make([]error, batchSize)
	for i := range batches {
		batches[i] = inputs
		outs[i] = make([]float64, len(c.Graph.Outputs()))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.ExecuteBatchInto(c, batches, outs, nil, errs)
		if err := errors.Join(errs...); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(batchSize, "execs/op")
}

// serveConcurrentWorkload is the serving-path benchmark workload: a
// mid-size random DAG small enough that per-request overhead (cache
// touches, machine churn, result marshalling) is a visible fraction of
// the simulated execution — the regime micro-batching targets.
func serveConcurrentWorkload() (*dag.Graph, []float64, arch.Config) {
	g := dag.RandomGraph(dag.RandomConfig{Inputs: 4, Interior: 18, MaxArgs: 2, MulFrac: 0.3, Seed: 11})
	in := make([]float64, len(g.Inputs()))
	for i := range in {
		in[i] = 0.5 + float64(i)*0.125
	}
	return g, in, arch.Config{D: 2, B: 8, R: 16}
}

// runClients drives op from nc concurrent closed-loop clients, splitting
// b.N iterations among them.
func runClients(b *testing.B, nc int, op func() error) {
	b.Helper()
	var wg sync.WaitGroup
	for c := 0; c < nc; c++ {
		n := b.N / nc
		if c < b.N%nc {
			n++
		}
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if err := op(); err != nil {
					b.Error(err)
					return
				}
			}
		}(n)
	}
	wg.Wait()
}

// BenchmarkServeConcurrent races the scheduler against calling the
// engine directly: the same serving workload driven by concurrent
// closed-loop clients, each doing Compile-hit + a one-item
// ExecuteBatchInto on its own ("direct") versus submitting one vector
// to the scheduler ("batched": admission, one compile-cache hit and a
// one-item ExecuteBatchInto on the client's goroutine). The scheduler's bill is its bookkeeping — a
// mutex to admit and one to release, three clock reads and four
// histogram observations per call. Merging concurrent callers into
// shared batches was tried for this and measured slower: at a ≈ 0.1 µs
// execute the merge window holds 3 items at 8 clients and 11 at 32, and
// the park/wake cost outweighs one compile-cache touch per call.
// Measured on 2 vCPUs (-benchtime 1s -count 5, ns/op medians; the two
// row pairs come from different sessions, and timings drift up to ~1.5×
// between sessions, so compare within a row):
//
//	                              direct   batched   items/batch   B/op
//	merging callers, 8 clients       670      1926        2.8       486
//	merging callers, 32 clients      665      1372       10.8       357
//	per-call path, 8 clients         763      1277        1.0       120
//	per-call path, 32 clients        747      1197        1.0       120
//
// (DESIGN.md "Scheduling & load" has the condition under which merging
// would pay.) Short mode runs the 8-client pair only.
func BenchmarkServeConcurrent(b *testing.B) {
	clientCounts := []int{8, 32}
	if testing.Short() {
		clientCounts = []int{8}
	}
	g, in, cfg := serveConcurrentWorkload()
	for _, nc := range clientCounts {
		b.Run(fmt.Sprintf("direct/clients=%d", nc), func(b *testing.B) {
			eng := engine.New(engine.Options{})
			direct := func() error {
				c, err := eng.Compile(g, cfg, compiler.Options{})
				if err != nil {
					return err
				}
				errs := make([]error, 1)
				eng.ExecuteBatchInto(c, [][]float64{in}, [][]float64{make([]float64, len(c.Graph.Outputs()))}, nil, errs)
				return errs[0]
			}
			if err := direct(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			runClients(b, nc, direct)
		})
		b.Run(fmt.Sprintf("batched/clients=%d", nc), func(b *testing.B) {
			eng := engine.New(engine.Options{})
			sch := sched.New(eng, sched.Options{MaxBatch: nc})
			defer sch.Close()
			vecs := [][]float64{in}
			if _, errs := sch.SubmitMany(g, cfg, compiler.Options{}, vecs); errs[0] != nil {
				b.Fatal(errs[0])
			}
			b.ReportAllocs()
			b.ResetTimer()
			runClients(b, nc, func() error {
				_, errs := sch.SubmitMany(g, cfg, compiler.Options{}, vecs)
				return errs[0]
			})
			b.StopTimer()
			st := sch.Stats()
			if st.BatchSize.Count > 0 {
				b.ReportMetric(st.BatchSize.Mean, "items/batch")
			}
		})
	}
}

// TestServeBatchHotPathAllocZero pins the engine's serial batch path:
// a warmed ExecuteBatchInto of up to one evaluator pass (32 vectors)
// runs inline on the caller's goroutine, whatever the core count, and
// must not allocate at all. Longer batches take the parallel path that
// TestServeBatchParallelAllocCeiling pins.
func TestServeBatchHotPathAllocZero(t *testing.T) {
	const n = 16
	if allocs := batchExecuteAllocs(t, n); allocs > 0 {
		t.Errorf("serial batch path allocates %v objects per %d-item batch, want 0", allocs, n)
	}
}

// TestServeBatchParallelAllocCeiling bounds the parallel batch path that
// dpu-serve's default engine (GOMAXPROCS workers) takes for a batch of
// more than one evaluator pass (32 vectors): par.ForEach's closure,
// counter and wait group, plus one goroutine per chunk. On a 64-item
// batch (two passes) it measures 3 + min(workers, 2) allocations per
// call, and the ceiling is that plus 3. It is skipped at GOMAXPROCS 1,
// where the default engine takes the serial path.
func TestServeBatchParallelAllocCeiling(t *testing.T) {
	workers := runtime.GOMAXPROCS(0)
	if workers == 1 {
		t.Skip("GOMAXPROCS 1: the default engine runs batches serially")
	}
	const n = 64
	allocs := batchExecuteAllocs(t, n)
	if ceiling := float64(3 + min(workers, 2) + 3); allocs > ceiling {
		t.Errorf("parallel batch path allocates %v objects per %d-item batch at %d workers, ceiling %v",
			allocs, n, workers, ceiling)
	}
}

// batchExecuteAllocs measures the allocations of one warmed n-item
// ExecuteBatchInto on a default engine.
func batchExecuteAllocs(t *testing.T, n int) float64 {
	g, in, cfg := serveConcurrentWorkload()
	eng := engine.New(engine.Options{})
	c, err := eng.Compile(g, cfg, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	batches := make([][]float64, n)
	outs := make([][]float64, n)
	cycles := make([]int, n)
	errs := make([]error, n)
	for i := range batches {
		batches[i] = in
		outs[i] = make([]float64, len(c.Graph.Outputs()))
	}
	eng.ExecuteBatchInto(c, batches, outs, cycles, errs) // warm the evaluators
	allocs := testing.AllocsPerRun(50, func() {
		eng.ExecuteBatchInto(c, batches, outs, cycles, errs)
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
	}
	return allocs
}

// TestSchedulerSubmitAllocCeiling bounds the full scheduler round trip
// (admission, compile-cache hit, one chunk, accounting) for one vector
// whose one-vector list is built outside the measured loop. It measures
// 4 allocations per call — the result and error slices, the output rows
// — and the ceiling is that plus 3, so a regression that adds per-call
// bookkeeping fails here.
func TestSchedulerSubmitAllocCeiling(t *testing.T) {
	g, in, cfg := serveConcurrentWorkload()
	eng := engine.New(engine.Options{})
	sch := sched.New(eng, sched.Options{})
	defer sch.Close()
	vecs := [][]float64{in}
	if _, errs := sch.SubmitMany(g, cfg, compiler.Options{}, vecs); errs[0] != nil {
		t.Fatal(errs[0])
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, errs := sch.SubmitMany(g, cfg, compiler.Options{}, vecs); errs[0] != nil {
			t.Fatal(errs[0])
		}
	})
	const ceiling = 4 + 3
	if allocs > ceiling {
		t.Errorf("scheduler round trip allocates %v objects per submission, ceiling %d", allocs, ceiling)
	}
}

// TestSchedulerSubmitTracedAllocCeiling pins tracing's hot-path cost:
// a submission carrying a live trace measures 6 allocations, two more
// than an untraced one (the hex buffer and string of the engine's
// fingerprint attribute on its resolve span) — span recording appends
// into the trace's preallocated buffer and must not add per-item heap
// traffic. The ceiling is 6 plus 3.
// Every call records three spans (queue_wait, resolve, execute) into
// one trace, so the run count keeps the root and every call's spans
// within the 64-span budget: the test measures recording, not the drop
// path.
func TestSchedulerSubmitTracedAllocCeiling(t *testing.T) {
	g, in, cfg := serveConcurrentWorkload()
	eng := engine.New(engine.Options{})
	sch := sched.New(eng, sched.Options{})
	defer sch.Close()
	vecs := [][]float64{in}
	if _, errs := sch.SubmitMany(g, cfg, compiler.Options{}, vecs); errs[0] != nil {
		t.Fatal(errs[0]) // compile outside the trace: every traced call is a cache hit
	}
	tracer := trace.New(trace.Options{})
	tr := tracer.Start(trace.ID{}, "bench", time.Time{})
	// AllocsPerRun makes one warm-up call before its runs, so the trace
	// holds the root and 3*(runs+1) spans: 64 at 20 runs.
	const spansPerCall, budget = 3, 64
	const runs = (budget-1)/spansPerCall - 1
	allocs := testing.AllocsPerRun(runs, func() {
		compile := func() (*compiler.Compiled, error) {
			c, _, err := eng.Program(g.Fingerprint(), func() (*dag.Graph, error) { return g, nil }, cfg, compiler.Options{}, tr)
			return c, err
		}
		if _, errs := sch.SubmitManyTraced(context.Background(), compile, vecs, tr); errs[0] != nil {
			t.Fatal(errs[0])
		}
	})
	rec := tracer.Finish(tr)
	if rec.DroppedSpans != 0 {
		t.Fatalf("trace dropped %d spans: the measurement ran past the span budget", rec.DroppedSpans)
	}
	const ceiling = 6 + 3
	if allocs > ceiling {
		t.Errorf("traced round trip allocates %v objects per submission, ceiling %d", allocs, ceiling)
	}
}

// sweepBenchInputs builds the workload suite and grid shared by the
// serial/parallel sweep benchmarks: a reduced suite (two PCs, one
// SpTRSV) over the full 48-point grid.
func sweepBenchInputs() ([]*dag.Graph, []arch.Config) {
	g1 := pc.Build(pc.Suite()[0], 0.05)
	g2 := pc.Build(pc.Suite()[2], 0.05)
	g3, _ := sptrsv.Build(sptrsv.Suite()[1], 0.05)
	return []*dag.Graph{g1, g2, g3}, dse.Grid()
}

// BenchmarkSweepSerial is the §V design-space exploration on one worker —
// the seed's behavior.
func BenchmarkSweepSerial(b *testing.B) {
	workloads, cfgs := sweepBenchInputs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points := dse.SweepParallel(workloads, cfgs, compiler.Options{}, 1)
		if len(points) != len(cfgs) {
			b.Fatal("short sweep")
		}
	}
}

// BenchmarkSweepParallel is the same sweep on one worker per CPU; the
// speedup over BenchmarkSweepSerial tracks the host's core count.
func BenchmarkSweepParallel(b *testing.B) {
	workloads, cfgs := sweepBenchInputs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points := dse.SweepParallel(workloads, cfgs, compiler.Options{}, runtime.GOMAXPROCS(0))
		if len(points) != len(cfgs) {
			b.Fatal("short sweep")
		}
	}
}

// BenchmarkPackUnpack measures the variable-length instruction codec.
func BenchmarkPackUnpack(b *testing.B) {
	g := pc.Build(pc.Suite()[0], 0.25)
	c, err := compiler.Compile(g, arch.MinEDP(), compiler.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		packed := c.Prog.Pack()
		if _, err := arch.Unpack(packed, c.Prog.Cfg, len(c.Prog.Instrs)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(c.Prog.BitSize())/8, "bytes/prog")
}

// BenchmarkHostParallel measures the real level-synchronous CPU baseline
// on this machine.
func BenchmarkHostParallel(b *testing.B) {
	g := pc.Build(pc.Suite()[3], 0.25)
	rng := rand.New(rand.NewSource(1))
	inputs := make([]float64, len(g.Inputs()))
	for i := range inputs {
		inputs[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.RunParallel(g, inputs, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(g.NumNodes()), "nodes/run")
}

// BenchmarkAblationTopology quantifies the interconnect choice (fig. 6):
// cycles under each output topology.
func BenchmarkAblationTopology(b *testing.B) {
	g := pc.Build(pc.Suite()[0], 0.25)
	for _, tp := range []arch.OutputTopology{arch.OutCrossbar, arch.OutPerLayer, arch.OutPerPE} {
		b.Run(tp.String(), func(b *testing.B) {
			cfg := arch.Config{D: 3, B: 64, R: 32, Output: tp}
			var cycles int
			for i := 0; i < b.N; i++ {
				c, err := compiler.Compile(g, cfg, compiler.Options{})
				if err != nil {
					b.Fatal(err)
				}
				cycles = c.Stats.Cycles
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

// BenchmarkAblationDepth quantifies the tree-depth choice at constant
// bank count (the paper's "increasing D improves latency without more
// power" observation).
func BenchmarkAblationDepth(b *testing.B) {
	g := pc.Build(pc.Suite()[0], 0.25)
	for _, d := range []int{1, 2, 3} {
		b.Run([]string{"", "D1", "D2", "D3"}[d], func(b *testing.B) {
			cfg := arch.Config{D: d, B: 64, R: 32}
			var cycles int
			for i := 0; i < b.N; i++ {
				c, err := compiler.Compile(g, cfg, compiler.Options{})
				if err != nil {
					b.Fatal(err)
				}
				cycles = c.Stats.Cycles
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

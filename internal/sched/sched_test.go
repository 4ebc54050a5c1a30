package sched

import (
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpuv2/internal/arch"
	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
	"dpuv2/internal/engine"
	"dpuv2/internal/sim"
	"dpuv2/internal/trace"
)

var testCfg = arch.Config{D: 2, B: 8, R: 16}

func testGraph(seed int64) *dag.Graph {
	return dag.RandomGraph(dag.RandomConfig{
		Inputs:   4,
		Interior: 25,
		MaxArgs:  2,
		MulFrac:  0.3,
		Seed:     seed,
	})
}

func testInputs(g *dag.Graph, scale float64) []float64 {
	in := make([]float64, len(g.Inputs()))
	for i := range in {
		in[i] = scale * (0.25 + float64(i)*0.125)
	}
	return in
}

// wantEval computes the reference outputs for g in g.Outputs() order —
// the exact contract of Scheduler results.
func wantEval(t *testing.T, g *dag.Graph, in []float64) []float64 {
	t.Helper()
	vals, err := dag.Eval(g, in)
	if err != nil {
		t.Fatal(err)
	}
	outs := g.Outputs()
	want := make([]float64, len(outs))
	for j, s := range outs {
		want[j] = vals[s]
	}
	return want
}

// waitStats polls until cond on the scheduler's stats holds; the policy
// tests use it only to wait for concurrent Submit goroutines to reach
// their blocking point, never to time-race the dispatch rule itself.
func waitStats(t *testing.T, s *Scheduler, cond func(Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond(s.Stats()) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for scheduler state; stats = %+v", s.Stats())
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// gatedBackend is a real engine whose batch executions block until the
// test opens the gate: while the first execution is held, its key is
// busy, so everything the test submits meanwhile parks — the dispatch
// rule is driven by events, with no clock to race. It implements
// TracedBackend so traced batches still carry the engine's spans.
type gatedBackend struct {
	eng     *engine.Engine
	once    sync.Once
	started chan struct{} // closed when the first execution reaches the gate
	gate    chan struct{} // executions block until it is closed
}

func newGatedBackend() *gatedBackend {
	return &gatedBackend{
		eng:     engine.New(engine.Options{}),
		started: make(chan struct{}),
		gate:    make(chan struct{}),
	}
}

// open releases every held execution and lets later ones through.
func (b *gatedBackend) open() { close(b.gate) }

func (b *gatedBackend) wait() {
	b.once.Do(func() { close(b.started) })
	<-b.gate
}

func (b *gatedBackend) Compile(g *dag.Graph, cfg arch.Config, opts compiler.Options) (*compiler.Compiled, error) {
	return b.eng.Compile(g, cfg, opts)
}

func (b *gatedBackend) CompileTraced(g *dag.Graph, cfg arch.Config, opts compiler.Options, tr *trace.Trace) (*compiler.Compiled, error) {
	return b.eng.CompileTraced(g, cfg, opts, tr)
}

func (b *gatedBackend) ExecuteBatchInto(c *compiler.Compiled, batches, outs [][]float64, cycles []int, errs []error) {
	b.wait()
	b.eng.ExecuteBatchInto(c, batches, outs, cycles, errs)
}

func (b *gatedBackend) ExecuteBatchIntoTraced(c *compiler.Compiled, batches, outs [][]float64, cycles []int, errs []error, tr *trace.Trace) {
	b.wait()
	b.eng.ExecuteBatchIntoTraced(c, batches, outs, cycles, errs, tr)
}

// TestCoalescingPolicyTable drives the batch-while-busy rule
// deterministically: one call's vectors go first and are held inside the
// gated backend, single-vector arrivals are admitted while the key is
// busy, the fake clock moves, and only then does the gate open. Batch
// sizes and dispatch triggers are exact for every row.
func TestCoalescingPolicyTable(t *testing.T) {
	const parked = 5 * time.Millisecond
	cases := []struct {
		name       string
		maxBatch   int
		queueDepth int
		first      int // vectors of the first SubmitMany call
		arrivals   int // single-vector Submits while the first execution is held
		wantSize   int64
		wantLinger int64
		wantRej    int64
		// wantLingerMax is the longest enqueue→detach window: zero unless
		// a batch waited out the held execution.
		wantLingerMax time.Duration
		// wantSizes maps batch size → how many batches of that size
		// were dispatched (read back from the batch-size histogram).
		wantSizes map[int64]uint64
	}{
		{
			name:     "idle key dispatches a lone request at once",
			maxBatch: 100, first: 1,
			wantSizes: map[int64]uint64{1: 1},
		},
		{
			name:     "arrivals during an execution form one follow-on batch",
			maxBatch: 100, first: 1, arrivals: 3,
			wantLinger: 1, wantLingerMax: parked,
			wantSizes: map[int64]uint64{1: 1, 3: 1},
		},
		{
			name:     "batch fills before linger", // a parked batch that fills goes out by size
			maxBatch: 2, first: 1, arrivals: 2,
			wantSize:  1,
			wantSizes: map[int64]uint64{1: 1, 2: 1},
		},
		{
			name:     "max-batch splits, linger flushes the tail", // the tail parks behind its own call
			maxBatch: 2, first: 5,
			wantSize: 2, wantLinger: 1, wantLingerMax: parked,
			wantSizes: map[int64]uint64{2: 2, 1: 1},
		},
		{
			name:     "queue-full rejection",
			maxBatch: 100, queueDepth: 2, first: 1, arrivals: 4,
			wantLinger: 1, wantRej: 3, wantLingerMax: parked,
			wantSizes: map[int64]uint64{1: 2},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := NewFakeClock(time.Unix(0, 0))
			gb := newGatedBackend()
			s := New(gb, Options{MaxBatch: tc.maxBatch, QueueDepth: tc.queueDepth, Clock: clk})
			defer s.Close()
			g := testGraph(1)
			in := testInputs(g, 1)
			want := wantEval(t, g, in)

			type outcome struct {
				res Result
				err error
			}
			total := tc.first + tc.arrivals
			results := make(chan outcome, total)
			go func() {
				vecs := make([][]float64, tc.first)
				for i := range vecs {
					vecs[i] = in
				}
				res, errs := s.SubmitMany(g, testCfg, compiler.Options{}, vecs)
				for i := range res {
					results <- outcome{res[i], errs[i]}
				}
			}()
			<-gb.started // the first batch is executing: the key is busy
			for i := 0; i < tc.arrivals; i++ {
				go func() {
					res, err := s.Submit(g, testCfg, compiler.Options{}, in)
					results <- outcome{res, err}
				}()
			}
			// Every arrival has been admitted (and parked) or rejected
			// before the clock moves and the gate opens.
			waitStats(t, s, func(st Stats) bool {
				return st.Submitted+st.Rejected == int64(total)
			})
			clk.Advance(parked)
			gb.open()
			var rejected int64
			for i := 0; i < total; i++ {
				o := <-results
				if o.err != nil {
					if !errors.Is(o.err, ErrQueueFull) {
						t.Fatalf("unexpected error: %v", o.err)
					}
					rejected++
					continue
				}
				for j := range want {
					if o.res.Outputs[j] != want[j] {
						t.Errorf("output %d = %v, want %v", j, o.res.Outputs[j], want[j])
					}
				}
				if o.res.Cycles <= 0 {
					t.Error("missing cycle count")
				}
			}
			st := s.Stats()
			if rejected != tc.wantRej || st.Rejected != tc.wantRej {
				t.Errorf("rejected = %d (stats %d), want %d", rejected, st.Rejected, tc.wantRej)
			}
			if st.SizeFlushes != tc.wantSize {
				t.Errorf("size flushes = %d, want %d", st.SizeFlushes, tc.wantSize)
			}
			if st.LingerFlushes != tc.wantLinger {
				t.Errorf("linger flushes = %d, want %d", st.LingerFlushes, tc.wantLinger)
			}
			if st.CloseFlushes != 0 {
				t.Errorf("close flushes = %d, want 0", st.CloseFlushes)
			}
			if st.Linger.Max != int64(tc.wantLingerMax) {
				t.Errorf("linger max = %v, want %v", time.Duration(st.Linger.Max), tc.wantLingerMax)
			}
			if st.Completed != int64(total)-tc.wantRej {
				t.Errorf("completed = %d, want %d", st.Completed, int64(total)-tc.wantRej)
			}
			if st.QueueDepth != 0 {
				t.Errorf("queue depth = %d after quiescence, want 0", st.QueueDepth)
			}
			gotSizes := map[int64]uint64{}
			var nBatches int64
			for _, b := range st.BatchSizeHist.Buckets {
				gotSizes[b.Upper] = b.Count
				nBatches += int64(b.Count)
			}
			if !reflect.DeepEqual(gotSizes, tc.wantSizes) {
				t.Errorf("batch sizes = %v, want %v", gotSizes, tc.wantSizes)
			}
			if st.Batches != nBatches {
				t.Errorf("batches = %d, histogram holds %d", st.Batches, nBatches)
			}
		})
	}
}

// TestCloseDrainsAndRejects pins the graceful-drain contract: Close
// dispatches a parked batch at once (it does not wait for the executing
// batch to deliver), blocks until everything delivers, and later
// submissions fail with ErrClosed.
func TestCloseDrainsAndRejects(t *testing.T) {
	gb := newGatedBackend()
	s := New(gb, Options{MaxBatch: 100})
	g := testGraph(2)
	in := testInputs(g, 1)
	want := wantEval(t, g, in)

	const n = 3
	results := make(chan Result, n)
	errs := make(chan error, n)
	submit := func() {
		res, err := s.Submit(g, testCfg, compiler.Options{}, in)
		results <- res
		errs <- err
	}
	go submit()
	<-gb.started
	for i := 1; i < n; i++ {
		go submit() // parks behind the held execution
	}
	waitStats(t, s, func(st Stats) bool { return st.Submitted == n })
	closed := make(chan struct{})
	go func() {
		s.Close() // returns only after both batches delivered
		close(closed)
	}()
	// Close flushed the parked batch while the first was still held.
	waitStats(t, s, func(st Stats) bool { return st.CloseFlushes == 1 })
	if st := s.Stats(); st.Completed != 0 || st.Batches != 2 {
		t.Errorf("before the gate opens: %+v, want 2 dispatched batches, none completed", st)
	}
	gb.open()
	<-closed
	st := s.Stats()
	if st.CloseFlushes != 1 || st.LingerFlushes != 0 || st.Completed != n {
		t.Errorf("after close: %+v, want 1 close flush, 0 linger flushes and %d completed", st, n)
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
		res := <-results
		for j := range want {
			if res.Outputs[j] != want[j] {
				t.Errorf("drained output %d = %v, want %v", j, res.Outputs[j], want[j])
			}
		}
	}
	if _, err := s.Submit(g, testCfg, compiler.Options{}, in); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Close = %v, want ErrClosed", err)
	}
	s.Close() // idempotent
}

// TestSubmitManyCoalescesAndReportsPerItem checks that one caller's
// vectors coalesce into shared batches, per-item errors stay in their
// slots, and admission failures past the queue bound are itemized.
func TestSubmitManyCoalescesAndReportsPerItem(t *testing.T) {
	s := New(engine.New(engine.Options{}), Options{MaxBatch: 8})
	defer s.Close()
	g := testGraph(3)
	in := testInputs(g, 1)
	want := wantEval(t, g, in)

	batches := [][]float64{in, in[:1], in} // middle item has wrong arity
	results, errs := s.SubmitMany(g, testCfg, compiler.Options{}, batches)
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("good items errored: %v / %v", errs[0], errs[2])
	}
	if errs[1] == nil {
		t.Error("wrong-arity item did not error")
	}
	for _, i := range []int{0, 2} {
		for j := range want {
			if results[i].Outputs[j] != want[j] {
				t.Errorf("item %d output %d = %v, want %v", i, j, results[i].Outputs[j], want[j])
			}
		}
	}
	if st := s.Stats(); st.Failed != 1 || st.Completed != 2 {
		t.Errorf("stats = %+v, want 2 completed / 1 failed", st)
	}

	// Admission: a queue bound smaller than the request itemizes
	// ErrQueueFull on the overflow, still running what was admitted.
	s2 := New(engine.New(engine.Options{}), Options{MaxBatch: 100, QueueDepth: 2})
	r2, e2 := s2.SubmitMany(g, testCfg, compiler.Options{}, [][]float64{in, in, in, in})
	for i := 0; i < 2; i++ {
		if e2[i] != nil {
			t.Errorf("admitted item %d errored: %v", i, e2[i])
		}
		if len(r2[i].Outputs) != len(want) {
			t.Errorf("admitted item %d missing outputs", i)
		}
	}
	for i := 2; i < 4; i++ {
		if !errors.Is(e2[i], ErrQueueFull) {
			t.Errorf("overflow item %d = %v, want ErrQueueFull", i, e2[i])
		}
	}
	s2.Close()
}

// TestKAryGraphOutputsPermuted exercises the non-identity sink
// permutation: a k-ary multi-sink graph is renumbered by binarization,
// yet Submit must answer in the submitted graph's sink order.
func TestKAryGraphOutputsPermuted(t *testing.T) {
	s := New(engine.New(engine.Options{}), Options{})
	defer s.Close()
	// Two sinks, one of them a 3-ary op: binarization renumbers.
	g := dag.New("kary")
	a := g.AddInput()
	bb := g.AddInput()
	c := g.AddInput()
	sum := g.AddOp(dag.OpAdd, a, bb, c) // sink 3 (renumbered)
	g.AddOp(dag.OpMul, sum, a)          // sink 4
	in := []float64{2, 3, 4}
	want := wantEval(t, g, in)
	res, err := s.Submit(g, testCfg, compiler.Options{}, in)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != len(want) {
		t.Fatalf("got %d outputs, want %d", len(res.Outputs), len(want))
	}
	for j := range want {
		if res.Outputs[j] != want[j] {
			t.Errorf("output %d = %v, want %v (sink order not preserved?)", j, res.Outputs[j], want[j])
		}
	}
}

// TestCompileErrorFailsWholeBatch: an uncompilable configuration must
// surface to every item of its batch as a CompileError and count as
// failures, not hang.
func TestCompileErrorFailsWholeBatch(t *testing.T) {
	s := New(engine.New(engine.Options{}), Options{MaxBatch: 2})
	defer s.Close()
	g := testGraph(4)
	in := testInputs(g, 1)
	bad := arch.Config{D: 5, B: 2, R: 8} // B < 2^D: rejected by the compiler
	_, errs := s.SubmitMany(g, bad, compiler.Options{}, [][]float64{in, in})
	for i, err := range errs {
		var ce *CompileError
		if !errors.As(err, &ce) {
			t.Errorf("item %d: error %v, want a CompileError", i, err)
		}
	}
	if st := s.Stats(); st.Failed != 2 || st.Completed != 0 || st.Batches != 1 {
		t.Errorf("stats = %+v, want 2 failed in 1 batch", st)
	}
}

// TestDistinctKeysDoNotCoalesce: a busy key holds back only its own
// traffic. While one graph's batch is held executing, a different graph
// and a different config of the same graph must dispatch at once, each
// in its own batch, instead of parking.
func TestDistinctKeysDoNotCoalesce(t *testing.T) {
	gb := newGatedBackend()
	s := New(gb, Options{MaxBatch: 100})
	defer s.Close()
	g1, g2 := testGraph(5), testGraph(6)
	var wg sync.WaitGroup
	submit := func(g *dag.Graph, cfg arch.Config) {
		defer wg.Done()
		in := testInputs(g, 1)
		want := wantEval(t, g, in)
		res, err := s.Submit(g, cfg, compiler.Options{}, in)
		if err != nil {
			t.Error(err)
			return
		}
		for j := range want {
			if res.Outputs[j] != want[j] {
				t.Errorf("graph %s output %d = %v, want %v", g.Name, j, res.Outputs[j], want[j])
			}
		}
	}
	wg.Add(3)
	go submit(g1, testCfg)
	<-gb.started
	go submit(g2, testCfg)
	go submit(g1, arch.Config{D: 2, B: 8, R: 32})
	// All three are dispatched while the gate is still shut.
	waitStats(t, s, func(st Stats) bool { return st.Batches == 3 })
	gb.open()
	wg.Wait()
	if st := s.Stats(); st.Batches != 3 || st.LingerFlushes != 0 {
		t.Errorf("batches/linger flushes = %d/%d, want 3/0 (distinct keys must not coalesce)", st.Batches, st.LingerFlushes)
	}
}

// cyclesProbe records the cycles argument the scheduler hands the
// backend.
type cyclesProbe struct {
	*engine.Engine
	sawNonNil atomic.Bool
}

func (p *cyclesProbe) ExecuteBatchInto(c *compiler.Compiled, batches, outs [][]float64, cycles []int, errs []error) {
	if cycles != nil {
		p.sawNonNil.Store(true)
	}
	p.Engine.ExecuteBatchInto(c, batches, outs, cycles, errs)
}

// TestResultCyclesAreTheCompiledConstant: every item of a batch ran the
// same static schedule, so Result.Cycles is c.Stats.Cycles — which is
// what the cycle-accurate machine counts — and the scheduler collects no
// per-item array for it (it passes nil for the backend's cycles slot).
func TestResultCyclesAreTheCompiledConstant(t *testing.T) {
	g := testGraph(11)
	in := testInputs(g, 1)
	probe := &cyclesProbe{Engine: engine.New(engine.Options{})}
	s := New(probe, Options{MaxBatch: 8})
	defer s.Close()
	results, errs := s.SubmitMany(g, testCfg, compiler.Options{}, [][]float64{in, in, in})
	ref, err := sim.Run(results[0].Compiled, in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("item %d: %v", i, errs[i])
		}
		if results[i].Cycles != ref.Stats.Cycles {
			t.Errorf("item %d reports %d cycles, the machine counts %d", i, results[i].Cycles, ref.Stats.Cycles)
		}
	}
	if probe.sawNonNil.Load() {
		t.Error("the scheduler allocated a per-item cycles slice")
	}
}

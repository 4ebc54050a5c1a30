package sched

import (
	"context"
	"errors"
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

// checkOutputs fails t unless got equals want bit for bit.
func checkOutputs(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d outputs, want %d", what, len(got), len(want))
	}
	for j := range want {
		if got[j] != want[j] {
			t.Errorf("%s: output %d = %v, want %v", what, j, got[j], want[j])
		}
	}
}

// gatedBackend is a real engine whose FIRST batch execution blocks until
// the test opens the gate; every later execution passes straight
// through. It holds one call mid-execution while the test drives others,
// with no clock to race. It implements TracedBackend so traced calls
// still carry the engine's spans, and counts the executions it ran.
type gatedBackend struct {
	eng     *engine.Engine
	once    sync.Once
	started chan struct{} // closed when the first execution reaches the gate
	gate    chan struct{} // the first execution blocks until it is closed
	execs   atomic.Int64
}

func newGatedBackend() *gatedBackend {
	return &gatedBackend{
		eng:     engine.New(engine.Options{}),
		started: make(chan struct{}),
		gate:    make(chan struct{}),
	}
}

// open releases the held execution.
func (b *gatedBackend) open() { close(b.gate) }

func (b *gatedBackend) wait() {
	first := false
	b.once.Do(func() {
		first = true
		close(b.started)
	})
	if first {
		<-b.gate
	}
	b.execs.Add(1)
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

type outcome struct {
	res Result
	err error
}

// submitAsync runs a one-vector SubmitMany on its own goroutine and
// delivers the outcome.
func submitAsync(s *Scheduler, g *dag.Graph, in []float64) <-chan outcome {
	ch := make(chan outcome, 1)
	go func() {
		rs, errs := s.SubmitMany(g, testCfg, compiler.Options{}, [][]float64{in})
		res, err := rs[0], errs[0]
		ch <- outcome{res, err}
	}()
	return ch
}

// TestSameKeyCallsDoNotWait: while call A is held mid-execution, call B
// on the same graph and config runs to completion on its own goroutine
// — nothing parks B behind A.
func TestSameKeyCallsDoNotWait(t *testing.T) {
	gb := newGatedBackend()
	s := New(gb, Options{})
	defer s.Close()
	defer gb.open() // deferred calls run last-in first-out: gate, then Close
	g := testGraph(5)
	in := testInputs(g, 1)
	want := wantEval(t, g, in)

	held := submitAsync(s, g, in)
	<-gb.started
	select {
	case o := <-submitAsync(s, g, in):
		if o.err != nil {
			t.Fatal(o.err)
		}
		checkOutputs(t, "call B", o.res.Outputs, want)
	case <-time.After(10 * time.Second):
		t.Fatal("call B on the held call's key did not complete: it waited for call A")
	}
	select {
	case <-held:
		t.Fatal("call A completed before its gate opened")
	default:
	}
}

// TestCancelledCallSkipsUnstartedChunks: a call whose context is
// cancelled while its first chunk executes never starts the second. The
// second chunk's items fail with the context's error, count as failed,
// and give their queue slots back.
func TestCancelledCallSkipsUnstartedChunks(t *testing.T) {
	gb := newGatedBackend()
	s := New(gb, Options{MaxBatch: 1})
	defer s.Close()
	g := testGraph(6)
	in := testInputs(g, 1)
	want := wantEval(t, g, in)

	ctx, cancel := context.WithCancel(context.Background())
	type call struct {
		res  []Result
		errs []error
	}
	done := make(chan call, 1)
	go func() {
		res, errs := s.SubmitManyTraced(ctx, g, testCfg, compiler.Options{}, [][]float64{in, in}, nil)
		done <- call{res, errs}
	}()
	<-gb.started // chunk 1 is executing, chunk 2 not started
	cancel()
	gb.open()
	got := <-done
	if got.errs[0] != nil {
		t.Fatalf("chunk 1 started before the cancel, yet failed: %v", got.errs[0])
	}
	checkOutputs(t, "chunk 1", got.res[0].Outputs, want)
	if !errors.Is(got.errs[1], context.Canceled) {
		t.Errorf("chunk 2 error = %v, want context.Canceled", got.errs[1])
	}
	if n := gb.execs.Load(); n != 1 {
		t.Errorf("backend ran %d chunks, want 1 (chunk 2 must never execute)", n)
	}
	st := s.Stats()
	if st.Completed != 1 || st.Failed != 1 || st.QueueDepth != 0 {
		t.Errorf("completed/failed/queue depth = %d/%d/%d, want 1/1/0", st.Completed, st.Failed, st.QueueDepth)
	}
}

// TestCloseDrainsAndRejects pins the graceful-drain contract: Close stops
// admission at once, blocks until the admitted call still executing has
// finished, and later submissions fail with ErrClosed.
func TestCloseDrainsAndRejects(t *testing.T) {
	gb := newGatedBackend()
	s := New(gb, Options{})
	g := testGraph(2)
	in := testInputs(g, 1)
	want := wantEval(t, g, in)

	held := submitAsync(s, g, in)
	<-gb.started
	closed := make(chan struct{})
	go func() {
		s.Close() // returns only after the held call finished
		close(closed)
	}()
	// Calls admitted before Close took effect run straight through; once
	// it has, every submission is rejected.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, errs := s.SubmitMany(g, testCfg, compiler.Options{}, [][]float64{in})
		err := errs[0]
		if errors.Is(err, ErrClosed) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("Close never stopped admission")
		}
	}
	select {
	case <-closed:
		t.Fatal("Close returned with an admitted call still executing")
	default:
	}
	if st := s.Stats(); st.QueueDepth != 1 {
		t.Errorf("queue depth = %d while the held call executes, want 1", st.QueueDepth)
	}
	gb.open()
	<-closed
	o := <-held
	if o.err != nil {
		t.Fatal(o.err)
	}
	checkOutputs(t, "drained call", o.res.Outputs, want)
	if st := s.Stats(); st.QueueDepth != 0 || st.Submitted != st.Completed+st.Failed {
		t.Errorf("after close: %+v, want queue depth 0 and submitted == completed + failed", st)
	}
	if _, errs := s.SubmitMany(g, testCfg, compiler.Options{}, [][]float64{in}); !errors.Is(errs[0], ErrClosed) {
		t.Errorf("SubmitMany after Close = %v, want ErrClosed", errs[0])
	}
	s.Close() // idempotent
}

// TestSubmitManyReportsPerItem checks that one call's vectors run in
// MaxBatch chunks, per-item errors stay in their slots, and admission
// failures past the queue bound are itemized.
func TestSubmitManyReportsPerItem(t *testing.T) {
	s := New(engine.New(engine.Options{}), Options{MaxBatch: 2})
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
		checkOutputs(t, "good item", results[i].Outputs, want)
	}
	if st := s.Stats(); st.Failed != 1 || st.Completed != 2 || st.Batches != 2 || st.BatchSize.Max != 2 {
		t.Errorf("stats = %+v, want 2 completed / 1 failed in chunks of 2 and 1", st)
	}

	// Admission: a queue bound smaller than the request itemizes
	// ErrQueueFull on the overflow, still running what was admitted.
	s2 := New(engine.New(engine.Options{}), Options{MaxBatch: 100})
	s2.limit = 2
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
// yet SubmitMany must answer in the submitted graph's sink order.
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
	rs, errs := s.SubmitMany(g, testCfg, compiler.Options{}, [][]float64{in})
	res, err := rs[0], errs[0]
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

package sched

// Stage-decomposition tests: the scheduler splits per-item latency into
// queue_wait / execute on its now field, feeds the per-stage histograms
// (conserving counts), and records the windows as spans on a traced
// call. A call is held mid-execution by the gated backend
// (sched_test.go), never by a timer, and a test-local fake behind now
// makes every window exact.

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"dpuv2/internal/arch"
	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
	"dpuv2/internal/engine"
	"dpuv2/internal/trace"
)

// findSpans returns the spans with the given stage, in recording order.
func findSpans(rec *trace.Record, stage string) []trace.SpanRecord {
	var out []trace.SpanRecord
	for _, sp := range rec.Spans {
		if sp.Stage == stage {
			out = append(out, sp)
		}
	}
	return out
}

// fakeNow is a manually advanced time source for the scheduler's now
// field: time moves only on advance.
type fakeNow struct {
	mu sync.Mutex
	t  time.Time
}

func (f *fakeNow) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeNow) advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

// TestStageDecomposition drives two traced calls on one key: a
// two-chunk call whose first chunk is held while the fake time moves,
// and a one-vector call that runs to completion meanwhile. Every window
// is exact: the held chunk executes for the held time, the second chunk
// of the same call waits exactly that long (queue_wait runs from
// admission to chunk start), and the other call passes through
// zero-width. Any time read that bypasses now adds real nanoseconds and
// breaks the exact sums.
func TestStageDecomposition(t *testing.T) {
	const held = 5 * time.Millisecond
	// The fake starts held before the wall clock, on which the tracer
	// closes the traces and the engine times its resolve spans, so every
	// fake-time span ends before its trace does.
	clk := &fakeNow{t: time.Now().Add(-held)}
	gb := newGatedBackend()
	s := New(gb, Options{MaxBatch: 1})
	s.now = clk.now
	defer s.Close()
	tracer := trace.New(trace.Options{Service: "test"})
	tr1 := tracer.Start(trace.ID{}, "chunked", clk.now())
	tr2 := tracer.Start(trace.ID{}, "alone", clk.now())

	g := testGraph(11)
	in := testInputs(g, 1)
	submit := func(tr *trace.Trace, vecs [][]float64) <-chan []error {
		ch := make(chan []error, 1)
		go func() {
			_, errs := s.SubmitManyTraced(context.Background(), func() (*compiler.Compiled, error) {
				c, _, err := gb.eng.Program(g.Fingerprint(), func() (*dag.Graph, error) { return g, nil }, testCfg, compiler.Options{}, tr)
				return c, err
			}, vecs, tr)
			ch <- errs
		}()
		return ch
	}
	done1 := submit(tr1, [][]float64{in, in})
	<-gb.started // tr1's first chunk is held
	for _, err := range <-submit(tr2, [][]float64{in}) {
		if err != nil {
			t.Fatal(err)
		}
	}
	clk.advance(held)
	gb.open()
	for _, err := range <-done1 {
		if err != nil {
			t.Fatal(err)
		}
	}
	rec1, rec2 := tracer.Finish(tr1), tracer.Finish(tr2)

	// Per item (queue_wait, execute): tr1 chunk 1 (0, held), tr1 chunk 2
	// (held, 0), tr2 (0, 0).
	st := s.Stats()
	if st.QueueWaitHist.Count != 3 || st.ExecuteHist.Count != 3 || st.LatencyHist.Count != 3 {
		t.Fatalf("queue_wait/execute/latency counts %d/%d/%d, want 3/3/3",
			st.QueueWaitHist.Count, st.ExecuteHist.Count, st.LatencyHist.Count)
	}
	if st.QueueWaitHist.Sum != int64(held) || st.ExecuteHist.Sum != int64(held) || st.LatencyHist.Sum != int64(2*held) {
		t.Fatalf("queue_wait/execute/latency sums %d/%d/%d, want %d/%d/%d on the fake time",
			st.QueueWaitHist.Sum, st.ExecuteHist.Sum, st.LatencyHist.Sum, held, held, 2*held)
	}
	if st.Batches != 3 || st.LingerFlushes != 0 || st.LingerHist.Count != 0 {
		t.Fatalf("batches %d, linger flushes %d, linger count %d; want 3, 0, 0",
			st.Batches, st.LingerFlushes, st.LingerHist.Count)
	}

	for _, tc := range []struct {
		name     string
		rec      *trace.Record
		execs    []time.Duration // execute span per chunk
		cacheHit bool
	}{
		{"chunked", rec1, []time.Duration{held, 0}, false},
		{"alone", rec2, []time.Duration{0}, true},
	} {
		// One queue_wait span per call: admission → first chunk, zero here
		// (the compile takes no fake time).
		qsp := findSpans(tc.rec, StageQueueWait)
		if len(qsp) != 1 || qsp[0].OffsetNS != 0 || qsp[0].DurationNS != 0 {
			t.Errorf("%s: queue_wait spans %+v, want one empty span at offset 0", tc.name, qsp)
		}
		// One execute span per chunk, timed on now like the histograms
		// and carrying its batch size.
		esp := findSpans(tc.rec, StageExecute)
		if len(esp) != len(tc.execs) {
			t.Fatalf("%s: %d execute spans, want %d: %+v", tc.name, len(esp), len(tc.execs), tc.rec.Spans)
		}
		var sum int64
		for i, sp := range esp {
			if sp.Attrs["batch_size"] != int64(1) || sp.DurationNS != int64(tc.execs[i]) {
				t.Errorf("%s: execute span %d = %+v, want %v with batch_size 1", tc.name, i, sp, tc.execs[i])
			}
			sum += sp.DurationNS
		}
		if sum+qsp[0].DurationNS > tc.rec.DurationNS {
			t.Errorf("%s: stage sum %d exceeds trace duration %d", tc.name, sum, tc.rec.DurationNS)
		}
		if len(findSpans(tc.rec, "linger")) != 0 {
			t.Errorf("%s: a linger span was recorded: %+v", tc.name, tc.rec.Spans)
		}
		// The engine's cache resolution rode the same trace: a miss (with
		// its compile) for the first call, a hit for the second.
		rsp := findSpans(tc.rec, "resolve")
		if len(rsp) != 1 || rsp[0].Attrs["cache_hit"] != tc.cacheHit {
			t.Errorf("%s: resolve spans %+v, want one with cache_hit=%v", tc.name, rsp, tc.cacheHit)
		}
		if (len(findSpans(tc.rec, "compile")) != 0) == tc.cacheHit {
			t.Errorf("%s: compile span presence wrong for cache_hit=%v: %+v", tc.name, tc.cacheHit, tc.rec.Spans)
		}
	}
}

// TestExecuteSpanPerChunk: a traced call records one execute span per
// chunk it runs, carrying the chunk's size, whatever its compile step —
// one that records nothing contributes no resolve span, but the chunks
// are still timed. A call that never executes records none.
func TestExecuteSpanPerChunk(t *testing.T) {
	eng := engine.New(engine.Options{})
	s := New(eng, Options{MaxBatch: 2})
	defer s.Close()
	tracer := trace.New(trace.Options{})
	g := testGraph(23)
	in := testInputs(g, 1)
	want := wantEval(t, g, in)

	tr := tracer.Start(trace.ID{}, "request", time.Now())
	rs, errs := s.SubmitManyTraced(context.Background(), compileStep(eng, g), [][]float64{in, in, in}, tr)
	rec := tracer.Finish(tr)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("item %d failed: %v", i, err)
		}
		checkOutputs(t, "item", rs[i].Outputs, want)
	}
	esp := findSpans(rec, StageExecute)
	if len(esp) != 2 || esp[0].Attrs["batch_size"] != int64(2) || esp[1].Attrs["batch_size"] != int64(1) {
		t.Fatalf("execute spans %+v, want two with batch_size 2 and 1", esp)
	}
	if len(findSpans(rec, "resolve")) != 0 {
		t.Errorf("an untraced compile step recorded a resolve span: %+v", rec.Spans)
	}

	bad := arch.Config{D: 5, B: 2, R: 8} // B < 2^D: rejected by the compiler
	tr = tracer.Start(trace.ID{}, "request", time.Now())
	s.SubmitManyTraced(context.Background(), func() (*compiler.Compiled, error) {
		return eng.Compile(g, bad, compiler.Options{})
	}, [][]float64{in}, tr)
	if esp := findSpans(tracer.Finish(tr), StageExecute); len(esp) != 0 {
		t.Errorf("a call that failed to compile recorded execute spans %+v", esp)
	}
}

// TestStageCountConservation: every admitted item — executed, failed in
// execution or compilation, or skipped by a cancelled context — observes
// both stage histograms once, so queue_wait.count == execute.count ==
// completed + failed, however the call ended. Rejected items observe
// neither.
func TestStageCountConservation(t *testing.T) {
	eng := engine.New(engine.Options{})
	s := New(eng, Options{MaxBatch: 2})
	s.limit = 8
	defer s.Close()
	g := testGraph(12)
	in := testInputs(g, 1)
	vecs := func(n int) [][]float64 {
		out := make([][]float64, n)
		for i := range out {
			out[i] = in
		}
		return out
	}
	copts := compiler.Options{}
	if _, errs := s.SubmitMany(g, testCfg, copts, [][]float64{in}); errs[0] != nil {
		t.Fatal(errs[0])
	}
	// Five vectors in three chunks, one with the wrong arity.
	five := vecs(5)
	five[3] = in[:1]
	s.SubmitMany(g, testCfg, copts, five)
	// A compile failure fails every item of its call.
	bad := arch.Config{D: 5, B: 2, R: 8} // B < 2^D: rejected by the compiler
	s.SubmitMany(g, bad, copts, vecs(2))
	// A cancelled context fails every chunk before it starts.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.SubmitManyTraced(ctx, compileStep(eng, g), vecs(3), nil)
	// Twelve vectors against a bound of 8: the overflow is rejected.
	s.SubmitMany(g, testCfg, copts, vecs(12))

	st := s.Stats()
	const admitted = 1 + 5 + 2 + 3 + 8
	if st.Submitted != admitted || st.Rejected != 4 {
		t.Fatalf("submitted/rejected %d/%d, want %d/4", st.Submitted, st.Rejected, admitted)
	}
	if st.Completed != 1+4+8 || st.Failed != 1+2+3 {
		t.Fatalf("completed/failed %d/%d, want 13/6", st.Completed, st.Failed)
	}
	if st.QueueWaitHist.Count != admitted || st.ExecuteHist.Count != admitted || st.LatencyHist.Count != admitted {
		t.Fatalf("queue_wait/execute/latency counts %d/%d/%d, want all == admitted %d",
			st.QueueWaitHist.Count, st.ExecuteHist.Count, st.LatencyHist.Count, admitted)
	}
	if st.Batches != 1+3+1+2+4 || st.BatchSizeHist.Sum != admitted || st.QueueDepth != 0 {
		t.Fatalf("batches %d holding %d items, queue depth %d; want 11 holding %d, depth 0",
			st.Batches, st.BatchSizeHist.Sum, st.QueueDepth, admitted)
	}
}

// TestRejectedCallNeverCompiles: a call whose every vector admission
// turns away — the queue full, or the scheduler closed — and a call with
// no vectors never run their compile step, so a 429 or 503 builds and
// compiles nothing. A call with room runs it exactly once.
func TestRejectedCallNeverCompiles(t *testing.T) {
	eng := engine.New(engine.Options{})
	g := testGraph(24)
	in := testInputs(g, 1)
	calls := 0
	compile := func() (*compiler.Compiled, error) {
		calls++
		return eng.Compile(g, testCfg, compiler.Options{})
	}
	s := New(eng, Options{})
	submit := func(vecs ...[]float64) []error {
		_, errs := s.SubmitManyTraced(context.Background(), compile, vecs, nil)
		return errs
	}
	s.limit = 0
	for _, err := range submit(in, in) {
		if !errors.Is(err, ErrQueueFull) {
			t.Errorf("over a full queue: %v, want ErrQueueFull", err)
		}
	}
	s.limit = queueLimit
	submit()
	s.Close()
	for _, err := range submit(in) {
		if !errors.Is(err, ErrClosed) {
			t.Errorf("after Close: %v, want ErrClosed", err)
		}
	}
	if calls != 0 {
		t.Fatalf("rejected calls ran the compile step %d times, want 0", calls)
	}
	s = New(eng, Options{})
	defer s.Close()
	if errs := submit(in, in); errs[0] != nil || errs[1] != nil {
		t.Fatalf("admitted call failed: %v", errs)
	}
	if calls != 1 {
		t.Errorf("an admitted call ran the compile step %d times, want 1", calls)
	}
}

package sched

// Stage-decomposition tests: the scheduler splits per-item latency into
// linger / queue_wait / execute on the injected clock, feeds the three
// per-stage histograms (conserving counts), and records the same windows
// as spans on a traced request. Batches are formed by holding an
// execution in the gated backend (sched_test.go), never by a timer.

import (
	"sync"
	"testing"
	"time"

	"dpuv2/internal/arch"
	"dpuv2/internal/compiler"
	"dpuv2/internal/trace"
)

// findSpan returns the first span with the given stage, or nil.
func findSpan(rec *trace.Record, stage string) *trace.SpanRecord {
	for i := range rec.Spans {
		if rec.Spans[i].Stage == stage {
			return &rec.Spans[i]
		}
	}
	return nil
}

// TestStageDecomposition drives two traced requests through the two
// ways a batch leaves — at once on an idle key, and parked behind the
// first — with the execution held while a fake clock moves, and checks
// both readouts of the decomposition: the Stats histograms and the
// trace's stage spans. On a fake clock the windows are exact: the lone
// request never lingers and executes for exactly the held time; the
// parked one lingers for exactly that time and then passes through
// zero-width (nothing advances the clock after the gate opens).
func TestStageDecomposition(t *testing.T) {
	const held = 5 * time.Millisecond
	clk := NewFakeClock(time.Unix(0, 0))
	gb := newGatedBackend()
	s := New(gb, Options{MaxBatch: 100, Clock: clk})
	defer s.Close()
	tracer := trace.New(trace.Options{Clock: clk, SampleEvery: 1, Service: "test"})
	tr1 := tracer.Start(trace.ID{}, "lone", clk.Now())
	tr2 := tracer.Start(trace.ID{}, "parked", clk.Now())

	g := testGraph(11)
	in := testInputs(g, 1)
	done := make(chan error, 2)
	submit := func(tr *trace.Trace) {
		_, errs := s.SubmitManyTraced(g, testCfg, compiler.Options{}, [][]float64{in}, tr)
		done <- errs[0]
	}
	go submit(tr1)
	<-gb.started
	go submit(tr2)
	waitStats(t, s, func(st Stats) bool { return st.QueueDepth == 2 })
	clk.Advance(held)
	gb.open()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	rec1, rec2 := tracer.Finish(tr1), tracer.Finish(tr2)

	st := s.Stats()
	if st.LingerHist.Count != 2 || st.QueueWaitHist.Count != 2 || st.ExecuteHist.Count != 2 {
		t.Fatalf("stage histogram counts %d/%d/%d, want 2/2/2",
			st.LingerHist.Count, st.QueueWaitHist.Count, st.ExecuteHist.Count)
	}
	if st.Linger.Max != int64(held) || st.Execute.Max != int64(held) || st.QueueWait.Max != 0 {
		t.Fatalf("linger/execute/queue_wait max %d/%d/%d, want %d/%d/0 on the fake clock",
			st.Linger.Max, st.Execute.Max, st.QueueWait.Max, held, held)
	}
	if st.LingerFlushes != 1 {
		t.Fatalf("linger flushes %d, want 1 (the parked batch)", st.LingerFlushes)
	}

	for _, tc := range []struct {
		name     string
		rec      *trace.Record
		linger   time.Duration
		cacheHit bool
	}{
		{"lone", rec1, 0, false},
		{"parked", rec2, held, true},
	} {
		lsp := findSpan(tc.rec, StageLinger)
		qsp := findSpan(tc.rec, StageQueueWait)
		esp := findSpan(tc.rec, StageExecute)
		if lsp == nil || qsp == nil || esp == nil {
			t.Fatalf("%s: missing stage spans in %+v", tc.name, tc.rec.Spans)
		}
		if lsp.DurationNS != int64(tc.linger) || lsp.OffsetNS != 0 {
			t.Errorf("%s: linger span %+v, want %v at offset 0", tc.name, lsp, tc.linger)
		}
		if qsp.OffsetNS != int64(tc.linger) || qsp.DurationNS != 0 {
			t.Errorf("%s: queue_wait span %+v, want empty at offset %v", tc.name, qsp, tc.linger)
		}
		// Each request leads its own one-item batch, so its trace gets the
		// engine's execute span (with the batch_size attr), not the
		// scheduler's per-item one.
		if esp.Attrs["batch_size"] != int64(1) {
			t.Errorf("%s: execute span attrs %+v, want the engine's (batch_size)", tc.name, esp.Attrs)
		}
		// The engine's cache resolution rode the same trace: a miss (with
		// its compile) for the first batch, a hit for the follow-on.
		rsp := findSpan(tc.rec, "resolve")
		if rsp == nil || rsp.Attrs["cache_hit"] != tc.cacheHit {
			t.Errorf("%s: resolve span %+v, want cache_hit=%v", tc.name, rsp, tc.cacheHit)
		}
		if (findSpan(tc.rec, "compile") != nil) == tc.cacheHit {
			t.Errorf("%s: compile span presence wrong for cache_hit=%v: %+v", tc.name, tc.cacheHit, tc.rec.Spans)
		}
		// Stage windows are contiguous and sum to at most the trace total.
		if sum := lsp.DurationNS + qsp.DurationNS + esp.DurationNS; sum > tc.rec.DurationNS {
			t.Errorf("%s: stage sum %d exceeds trace duration %d", tc.name, sum, tc.rec.DurationNS)
		}
	}
}

// TestStageCountConservation: every delivered item — dispatched at once,
// filled, parked or failed — observes all three stage histograms, so
// their counts stay equal to each other (and to delivered items) no
// matter how batches formed.
func TestStageCountConservation(t *testing.T) {
	gb := newGatedBackend()
	s := New(gb, Options{MaxBatch: 2})
	defer s.Close()
	g := testGraph(12)
	in := testInputs(g, 1)
	var wg sync.WaitGroup
	submit := func() {
		defer wg.Done()
		if _, err := s.Submit(g, testCfg, compiler.Options{}, in); err != nil {
			t.Error(err)
		}
	}
	// One item goes out at once and is held; behind it 2 fill a batch
	// (size flush) and a 4th parks until the last delivery.
	wg.Add(4)
	go submit()
	<-gb.started
	for i := 0; i < 3; i++ {
		go submit()
	}
	waitStats(t, s, func(st Stats) bool { return st.Submitted == 4 })
	// A failed batch must conserve too: an uncompilable config fails
	// every item of its batch before reaching the gate.
	bad := arch.Config{D: 5, B: 2, R: 8} // B < 2^D: rejected by the compiler
	if _, errs := s.SubmitMany(g, bad, compiler.Options{}, [][]float64{in, in}); errs[0] == nil || errs[1] == nil {
		t.Error("compile failure did not surface")
	}
	gb.open()
	wg.Wait()

	st := s.Stats()
	if st.Completed != 4 || st.Failed != 2 {
		t.Fatalf("completed/failed %d/%d, want 4/2", st.Completed, st.Failed)
	}
	if st.SizeFlushes != 2 || st.LingerFlushes != 1 || st.Batches != 4 {
		t.Fatalf("size/linger flushes %d/%d of %d batches, want 2/1 of 4", st.SizeFlushes, st.LingerFlushes, st.Batches)
	}
	const delivered = 6
	if st.QueueWaitHist.Count != delivered || st.LingerHist.Count != delivered || st.ExecuteHist.Count != delivered {
		t.Fatalf("stage counts %d/%d/%d, want all == delivered %d",
			st.QueueWaitHist.Count, st.LingerHist.Count, st.ExecuteHist.Count, delivered)
	}
	if st.LatencyHist.Count != delivered {
		t.Fatalf("latency count %d, want %d", st.LatencyHist.Count, delivered)
	}
}

// TestCoalescedItemsShareStageSpans: two traced requests coalescing into
// one batch each get their own linger/queue_wait/execute spans — the
// non-leader's execute span comes from the scheduler (per-item window),
// the leader's from the engine.
func TestCoalescedItemsShareStageSpans(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	gb := newGatedBackend()
	s := New(gb, Options{MaxBatch: 100, Clock: clk})
	defer s.Close()
	tracer := trace.New(trace.Options{Clock: clk, SampleEvery: 1})
	g := testGraph(13)
	in := testInputs(g, 1)

	var wg sync.WaitGroup
	submit := func(tr *trace.Trace) {
		defer wg.Done()
		if _, errs := s.SubmitManyTraced(g, testCfg, compiler.Options{}, [][]float64{in}, tr); errs[0] != nil {
			t.Error(errs[0])
		}
	}
	// An untraced request holds the key busy; the two traced ones park
	// behind it in one follow-on batch.
	wg.Add(3)
	go submit(nil)
	<-gb.started
	tr1 := tracer.Start(trace.ID{}, "r1", clk.Now())
	tr2 := tracer.Start(trace.ID{}, "r2", clk.Now())
	go submit(tr1)
	go submit(tr2)
	waitStats(t, s, func(st Stats) bool { return st.QueueDepth == 3 })
	gb.open()
	wg.Wait()
	rec1, rec2 := tracer.Finish(tr1), tracer.Finish(tr2)
	if st := s.Stats(); st.Batches != 2 {
		t.Fatalf("batches = %d, want 2 (the traced pair coalesced)", st.Batches)
	}

	for _, rec := range []*trace.Record{rec1, rec2} {
		for _, stage := range []string{StageLinger, StageQueueWait, StageExecute} {
			if findSpan(rec, stage) == nil {
				t.Fatalf("trace %s missing %s span: %+v", rec.TraceID, stage, rec.Spans)
			}
		}
	}
	// Exactly one of the two traces carries the engine-level resolve span.
	n := 0
	for _, rec := range []*trace.Record{rec1, rec2} {
		if findSpan(rec, "resolve") != nil {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("%d traces carry the batch-level resolve span, want exactly 1", n)
	}
}

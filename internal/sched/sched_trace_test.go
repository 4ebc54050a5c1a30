package sched

// Stage-decomposition tests: the scheduler splits per-item latency into
// queue_wait / execute on the injected clock, feeds the per-stage
// histograms (conserving counts), and records the windows as spans on a
// traced call. A call is held mid-execution by the gated backend
// (sched_test.go), never by a timer.

import (
	"context"
	"testing"
	"time"

	"dpuv2/internal/arch"
	"dpuv2/internal/compiler"
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

// TestStageDecomposition drives two traced calls on one key: a
// two-chunk call whose first chunk is held while a fake clock moves,
// and a one-vector call that runs to completion meanwhile. On a fake
// clock every window is exact: the held chunk executes for the held
// time, the second chunk of the same call waits exactly that long
// (queue_wait runs from admission to chunk start), and the other call
// passes through zero-width.
func TestStageDecomposition(t *testing.T) {
	const held = 5 * time.Millisecond
	clk := NewFakeClock(time.Unix(0, 0))
	gb := newGatedBackend()
	s := New(gb, Options{MaxBatch: 1, Clock: clk})
	defer s.Close()
	tracer := trace.New(trace.Options{Clock: clk, Service: "test"})
	tr1 := tracer.Start(trace.ID{}, "chunked", clk.Now())
	tr2 := tracer.Start(trace.ID{}, "alone", clk.Now())

	g := testGraph(11)
	in := testInputs(g, 1)
	submit := func(tr *trace.Trace, vecs [][]float64) <-chan []error {
		ch := make(chan []error, 1)
		go func() {
			_, errs := s.SubmitManyTraced(context.Background(), g, testCfg, compiler.Options{}, vecs, tr)
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
	clk.Advance(held)
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
		t.Fatalf("queue_wait/execute/latency sums %d/%d/%d, want %d/%d/%d on the fake clock",
			st.QueueWaitHist.Sum, st.ExecuteHist.Sum, st.LatencyHist.Sum, held, held, 2*held)
	}
	if st.Batches != 3 || st.LingerFlushes != 0 || st.LingerHist.Count != 0 {
		t.Fatalf("batches %d, linger flushes %d, linger count %d; want 3, 0, 0",
			st.Batches, st.LingerFlushes, st.LingerHist.Count)
	}

	for _, tc := range []struct {
		name     string
		rec      *trace.Record
		chunks   int
		cacheHit bool
	}{
		{"chunked", rec1, 2, false},
		{"alone", rec2, 1, true},
	} {
		// One queue_wait span per call: admission → first chunk, zero here
		// (the compile takes no fake time).
		qsp := findSpans(tc.rec, StageQueueWait)
		if len(qsp) != 1 || qsp[0].OffsetNS != 0 || qsp[0].DurationNS != 0 {
			t.Errorf("%s: queue_wait spans %+v, want one empty span at offset 0", tc.name, qsp)
		}
		// One engine execute span per chunk, carrying its batch size (the
		// engine opens it past the gate, so it holds no fake time).
		esp := findSpans(tc.rec, StageExecute)
		if len(esp) != tc.chunks {
			t.Fatalf("%s: %d execute spans, want %d: %+v", tc.name, len(esp), tc.chunks, tc.rec.Spans)
		}
		var sum int64
		for i, sp := range esp {
			if sp.Attrs["batch_size"] != int64(1) {
				t.Errorf("%s: execute span %d = %+v, want the engine's with batch_size 1", tc.name, i, sp)
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

// TestStageCountConservation: every admitted item — executed, failed in
// execution or compilation, or skipped by a cancelled context — observes
// both stage histograms once, so queue_wait.count == execute.count ==
// completed + failed, however the call ended. Rejected items observe
// neither.
func TestStageCountConservation(t *testing.T) {
	s := New(engine.New(engine.Options{}), Options{MaxBatch: 2})
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
	s.SubmitManyTraced(ctx, g, testCfg, copts, vecs(3), nil)
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

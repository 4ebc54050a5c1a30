package sched

import (
	"sync"
	"testing"

	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
	"dpuv2/internal/engine"
)

// TestStressNoResultCrossWiring is the scheduler's -race load test:
// many goroutines hammer one scheduler with a mixed graph population and
// per-goroutine input scales, so every (graph, scale) pair has a unique
// expected output vector. Any cross-wiring between concurrent requests —
// a caller receiving another's outputs, or two requests sharing a
// result buffer — shows up as a value mismatch; the race detector covers
// the memory-ordering side. CI runs this under -race.
func TestStressNoResultCrossWiring(t *testing.T) {
	const (
		workers = 8
		iters   = 25
		nGraphs = 4
	)
	graphs := make([]*dag.Graph, nGraphs)
	wants := make([]map[float64][]float64, nGraphs) // per graph: scale → expected
	for i := range graphs {
		graphs[i] = testGraph(int64(300 + i))
		wants[i] = make(map[float64][]float64)
		for w := 0; w < workers; w++ {
			scale := 1 + float64(w)*0.5
			wants[i][scale] = wantEval(t, graphs[i], testInputs(graphs[i], scale))
		}
	}
	s := New(engine.New(engine.Options{}), Options{MaxBatch: 8})
	defer s.Close()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			scale := 1 + float64(w)*0.5
			for it := 0; it < iters; it++ {
				for gi, g := range graphs {
					rs, errs := s.SubmitMany(g, testCfg, compiler.Options{}, [][]float64{testInputs(g, scale)})
					res, err := rs[0], errs[0]
					if err != nil {
						t.Errorf("worker %d: %v", w, err)
						return
					}
					want := wants[gi][scale]
					for j := range want {
						if res.Outputs[j] != want[j] {
							t.Errorf("worker %d graph %d iter %d: output %d = %v, want %v (cross-wired result?)",
								w, gi, it, j, res.Outputs[j], want[j])
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()

	st := s.Stats()
	total := int64(workers * iters * nGraphs)
	if st.Submitted != total {
		t.Errorf("submitted = %d, want %d", st.Submitted, total)
	}
	if st.Completed != total || st.Failed != 0 || st.Rejected != 0 {
		t.Errorf("completed/failed/rejected = %d/%d/%d, want %d/0/0",
			st.Completed, st.Failed, st.Rejected, total)
	}
	if st.QueueDepth != 0 {
		t.Errorf("queue depth = %d after quiescence, want 0", st.QueueDepth)
	}
	if st.Batches <= 0 || st.Batches > total {
		t.Errorf("batches = %d out of range (0, %d]", st.Batches, total)
	}
	if st.Latency.Count != uint64(total) {
		t.Errorf("latency observations = %d, want %d", st.Latency.Count, total)
	}
}

// TestStressAdmissionUnderOverload keeps the queue bound far below the
// offered load: some submissions must be rejected, every admitted one
// must complete correctly, and the conservation law submitted ==
// completed + failed must hold at quiescence.
func TestStressAdmissionUnderOverload(t *testing.T) {
	const (
		workers = 8
		iters   = 40
	)
	g := testGraph(77)
	in := testInputs(g, 1)
	want := wantEval(t, g, in)
	s := New(engine.New(engine.Options{}), Options{MaxBatch: 4})
	s.limit = 3
	defer s.Close()

	var wg sync.WaitGroup
	var mu sync.Mutex
	var ok, rejected int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				rs, errs := s.SubmitMany(g, testCfg, compiler.Options{}, [][]float64{in})
				res, err := rs[0], errs[0]
				if err != nil {
					if err != ErrQueueFull {
						t.Errorf("unexpected error: %v", err)
					}
					mu.Lock()
					rejected++
					mu.Unlock()
					continue
				}
				for j := range want {
					if res.Outputs[j] != want[j] {
						t.Errorf("output %d = %v, want %v", j, res.Outputs[j], want[j])
					}
				}
				mu.Lock()
				ok++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	st := s.Stats()
	if st.Completed != ok || st.Rejected != rejected {
		t.Errorf("stats %d completed / %d rejected, callers saw %d / %d", st.Completed, st.Rejected, ok, rejected)
	}
	if st.Submitted != st.Completed+st.Failed {
		t.Errorf("conservation violated: submitted %d != completed %d + failed %d", st.Submitted, st.Completed, st.Failed)
	}
	if st.QueueDepth != 0 {
		t.Errorf("queue depth = %d after quiescence", st.QueueDepth)
	}
	if st.BatchSize.Max > 4 {
		t.Errorf("batch size max = %d exceeds MaxBatch 4", st.BatchSize.Max)
	}
}

package engine

import (
	"testing"

	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
)

// TestExecuteBatchIntoMatchesReference checks the chunked batch path
// against the reference evaluator for every item, including malformed
// items in the middle and at the end of the batch (each error must stay
// in its own slot and not disturb neighbours evaluated in the same
// pass). The 100-item batch is four evaluator passes split over one,
// three and four workers, so chunks of one and of two passes both run.
func TestExecuteBatchIntoMatchesReference(t *testing.T) {
	for _, workers := range []int{1, 3, 4} {
		for _, n := range []int{9, 100} {
			e := New(Options{Workers: workers})
			g := testGraph(42)
			c, err := e.Compile(g, testCfg, compiler.Options{})
			if err != nil {
				t.Fatal(err)
			}
			nSinks := len(c.Graph.Outputs())
			batches := make([][]float64, n)
			outs := make([][]float64, n)
			cycles := make([]int, n)
			errs := make([]error, n)
			for i := range batches {
				batches[i] = testInputs(g, float64(i+1))
				outs[i] = make([]float64, nSinks)
			}
			bad := map[int]bool{4: true, n - 1: true}
			for i := range bad {
				batches[i] = batches[i][:1] // wrong arity → per-item error
			}
			e.ExecuteBatchInto(c, batches, outs, cycles, errs)
			for i := 0; i < n; i++ {
				if bad[i] {
					if errs[i] == nil {
						t.Errorf("workers=%d n=%d: malformed item %d did not error", workers, n, i)
					}
					continue
				}
				if errs[i] != nil {
					t.Fatalf("workers=%d n=%d item %d: %v", workers, n, i, errs[i])
				}
				if cycles[i] <= 0 {
					t.Errorf("workers=%d n=%d item %d: missing cycles", workers, n, i)
				}
				want, err := dag.Eval(c.Graph, batches[i])
				if err != nil {
					t.Fatal(err)
				}
				for j, sink := range c.Graph.Outputs() {
					if outs[i][j] != want[sink] {
						t.Errorf("workers=%d n=%d item %d sink %d = %v, want %v", workers, n, i, sink, outs[i][j], want[sink])
					}
				}
			}
			if got, want := e.Stats().Executions, int64(n-len(bad)); got != want {
				t.Errorf("workers=%d n=%d: %d executions, want %d", workers, n, got, want)
			}
		}
	}
}

// TestExecuteBatchIntoSerialAllocFree pins the scheduler hot path's
// allocation contract: once the pool and caches are warm, a
// single-worker batch execution allocates nothing per item.
func TestExecuteBatchIntoSerialAllocFree(t *testing.T) {
	e := New(Options{Workers: 1})
	g := testGraph(7)
	c, err := e.Compile(g, testCfg, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	batches := make([][]float64, n)
	outs := make([][]float64, n)
	cycles := make([]int, n)
	errs := make([]error, n)
	for i := range batches {
		batches[i] = testInputs(g, 1)
		outs[i] = make([]float64, len(c.Graph.Outputs()))
	}
	e.ExecuteBatchInto(c, batches, outs, cycles, errs) // warm pool + caches
	allocs := testing.AllocsPerRun(20, func() {
		e.ExecuteBatchInto(c, batches, outs, cycles, errs)
	})
	if allocs > 0 {
		t.Errorf("serial ExecuteBatchInto allocates %v objects per batch, want 0", allocs)
	}
}

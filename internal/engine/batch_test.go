package engine

import (
	"testing"

	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
)

// TestExecuteBatchIntoMatchesReference checks the chunked batch path
// against the reference evaluator for every item, including a malformed
// item in the middle of the batch (its error must stay in its own slot
// and not disturb neighbours executed on the same leased machine).
func TestExecuteBatchIntoMatchesReference(t *testing.T) {
	for _, workers := range []int{1, 4} {
		e := New(Options{Workers: workers})
		g := testGraph(42)
		c, err := e.Compile(g, testCfg, compiler.Options{})
		if err != nil {
			t.Fatal(err)
		}
		nSinks := len(c.Graph.Outputs())
		const n = 9
		batches := make([][]float64, n)
		outs := make([][]float64, n)
		cycles := make([]int, n)
		errs := make([]error, n)
		for i := range batches {
			batches[i] = testInputs(g, float64(i+1))
			outs[i] = make([]float64, nSinks)
		}
		batches[4] = batches[4][:1] // wrong arity → per-item error
		e.ExecuteBatchInto(c, batches, outs, cycles, errs)
		for i := 0; i < n; i++ {
			if i == 4 {
				if errs[4] == nil {
					t.Errorf("workers=%d: malformed item 4 did not error", workers)
				}
				continue
			}
			if errs[i] != nil {
				t.Fatalf("workers=%d item %d: %v", workers, i, errs[i])
			}
			if cycles[i] <= 0 {
				t.Errorf("workers=%d item %d: missing cycles", workers, i)
			}
			want, err := dag.Eval(c.Graph, batches[i])
			if err != nil {
				t.Fatal(err)
			}
			for j, sink := range c.Graph.Outputs() {
				if outs[i][j] != want[sink] {
					t.Errorf("workers=%d item %d sink %d = %v, want %v", workers, i, sink, outs[i][j], want[sink])
				}
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

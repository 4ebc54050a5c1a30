package serve

import (
	"math"
	"net/http/httptest"
	"strings"
	"testing"

	"dpuv2/internal/arch"
	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
	"dpuv2/internal/engine"
	"dpuv2/internal/sim"
)

// nonFiniteGraphText reaches every non-finite class from a finite
// input: x·1e308·1e308 overflows to +Inf for x>2e-308-ish, negation
// gives −Inf, and Inf+(−Inf) is NaN; unit multiplies surface all three
// as sinks. A subnormal x (1e-310) keeps every sink finite instead.
const nonFiniteGraphText = `input
const 1e308
mul 0 1
mul 2 1
const -1
mul 3 4
add 3 5
const 1
mul 3 7
mul 5 7
mul 6 7
`

// TestNonFiniteEndToEnd is the non-finite conformance satellite's
// serving leg: the same DAG that drives NaN/±Inf through the machine and
// the evaluator (internal/sim) is submitted over HTTP, and the handler
// must itemize the non-finite vector as a per-item error (JSON cannot
// encode Inf/NaN) while finite vectors on the same request succeed.
func TestNonFiniteEndToEnd(t *testing.T) {
	g, err := dag.Read(strings.NewReader(nonFiniteGraphText), "nonfinite")
	if err != nil {
		t.Fatal(err)
	}
	cfg := arch.Config{D: 2, B: 8, R: 16}
	c, err := compiler.Compile(g, cfg, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Ground truth: the overflow vector reaches +Inf, −Inf and NaN at
	// the sinks, bitwise-identically across the reference evaluator and
	// both backends (the serving layer then refuses to encode them).
	overflow, finite := []float64{1.5}, []float64{1e-310}
	want, err := dag.Eval(c.Graph, overflow)
	if err != nil {
		t.Fatal(err)
	}
	outs := c.Graph.Outputs()
	classes := map[bool]int{} // isNaN → count; Inf counted via IsInf
	infs := 0
	for _, s := range outs {
		if math.IsNaN(want[s]) {
			classes[true]++
		}
		if math.IsInf(want[s], 0) {
			infs++
		}
	}
	if classes[true] == 0 || infs < 2 {
		t.Fatalf("fixture broke: want NaN and both infinities at sinks, got %v", want)
	}
	// The reference machine and the engine's serving executor.
	machine, err := sim.Run(c, overflow)
	if err != nil {
		t.Fatal(err)
	}
	served := &sim.Result{Outputs: map[dag.NodeID]float64{}}
	servedOut, errs := make([]float64, len(outs)), []error{nil}
	engine.New(engine.Options{}).ExecuteBatchInto(c, [][]float64{overflow}, [][]float64{servedOut}, nil, errs)
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	for i, s := range outs {
		served.Outputs[s] = servedOut[i]
	}
	for b, res := range map[string]*sim.Result{"machine": machine, "engine": served} {
		for _, s := range outs {
			got := res.Outputs[s]
			// Bitwise identity except NaN (payload propagation is
			// implementation-defined; both sides must still be NaN).
			if math.Float64bits(got) != math.Float64bits(want[s]) &&
				!(math.IsNaN(got) && math.IsNaN(want[s])) {
				t.Errorf("%v sink %d: got %v, reference %v (bitwise)", b, s, got, want[s])
			}
		}
		if err := sim.CheckOutputs(c, overflow, res, 0); err != nil {
			t.Errorf("%v: CheckOutputs rejected identical non-finite propagation: %v", b, err)
		}
	}

	// Serving leg: vector 0 (overflow) must come back as a per-item
	// "non-finite output" error, vector 1 (subnormal input) must succeed
	// with finite outputs — a non-finite item must not poison its batch.
	req := ExecuteRequest{Graph: nonFiniteGraphText, Config: cfg, Inputs: [][]float64{overflow, finite}}
	s := New(engine.New(engine.Options{}), Options{})
	srv := httptest.NewServer(s.Handler())
	resp, out := postExecute(t, srv, req)
	srv.Close()
	s.Drain()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(out.Results) != 2 {
		t.Fatalf("%d results, want 2", len(out.Results))
	}
	bad, good := out.Results[0], out.Results[1]
	if !strings.Contains(bad.Error, "non-finite output") {
		t.Errorf("overflow vector error = %q, want non-finite itemization", bad.Error)
	}
	if len(bad.Outputs) != 0 {
		t.Errorf("non-finite vector leaked outputs %v into JSON", bad.Outputs)
	}
	if good.Error != "" {
		t.Errorf("finite vector errored: %s", good.Error)
	}
	if len(good.Outputs) != len(outs) {
		t.Errorf("finite vector has %d outputs, want %d", len(good.Outputs), len(outs))
	}
	wantFinite, err := dag.Eval(c.Graph, finite)
	if err != nil {
		t.Fatal(err)
	}
	for j, s := range outs {
		if got := good.Outputs[j]; got != wantFinite[s] {
			t.Errorf("finite vector output %d = %v, want %v", j, got, wantFinite[s])
		}
	}
}

package sim

import (
	"fmt"
	"math"
	"sync"

	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
)

// Result is one end-to-end execution of a compiled DAG.
type Result struct {
	// Outputs maps each sink of the compiled (binarized) graph to the
	// value found in data memory after the run.
	Outputs map[dag.NodeID]float64
	Stats   Stats
}

// machines holds idle machines per normalized configuration, one
// *sync.Pool each, so that Run builds a register file, landing ring and
// data memory only when its configuration's pool has none idle.
var machines sync.Map

// Run executes a compiled program with the given DAG input values (in
// graph-input order) on a machine in the state NewMachine builds and
// returns the sink values read back from data memory. The machine comes
// from a per-configuration pool and is reset before it runs; only a run
// that succeeds returns it. A program without the instructions its
// stats count (a serving-decoded artifact's) is refused, never run.
func Run(c *compiler.Compiled, inputs []float64) (*Result, error) {
	if err := c.CheckProgram(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if len(inputs) != len(c.InputWord) {
		return nil, fmt.Errorf("sim: %d inputs provided, graph has %d", len(inputs), len(c.InputWord))
	}
	cfg := c.Prog.Cfg.Normalize()
	pool, ok := machines.Load(cfg)
	if !ok {
		pool, _ = machines.LoadOrStore(cfg, new(sync.Pool))
	}
	m, ok := pool.(*sync.Pool).Get().(*Machine)
	if ok {
		m.reset(c.Prog.InitMem)
	} else {
		m = NewMachine(cfg, c.Prog.InitMem)
	}
	res, err := run(m, c, inputs)
	if err == nil {
		pool.(*sync.Pool).Put(m)
	}
	return res, err
}

func run(m *Machine, c *compiler.Compiled, inputs []float64) (*Result, error) {
	for i, w := range c.InputWord {
		if w < 0 {
			continue // input consumed by nothing
		}
		if err := m.SetMem(w, inputs[i]); err != nil {
			return nil, err
		}
	}
	if err := m.Run(c.Prog); err != nil {
		return nil, err
	}
	outs := c.Graph.Outputs()
	res := &Result{Outputs: make(map[dag.NodeID]float64, len(outs)), Stats: m.Stats()}
	for _, sink := range outs {
		v, err := m.Mem(c.OutputWord[sink])
		if err != nil {
			return nil, err
		}
		res.Outputs[sink] = v
	}
	return res, nil
}

// CheckOutputs compares an execution result against the reference
// evaluator. The simulator performs the same float64 operations in the
// same association order as the binarized graph, so results must match
// bit-exactly; tol exists only for callers that post-process.
//
// The acceptance condition is written in the positive form because
// every comparison with NaN is false: a rejection test would pass a NaN
// output against any finite reference. A NaN output is accepted only
// when the reference is NaN too — legitimate non-finite propagation
// (Inf−Inf, 0×Inf) that both sides must reproduce identically — and
// the tolerance clause applies only when both values are finite: an
// infinite reference would make the relative band tol*(1+|w|) infinite
// and accept anything, so non-finite values must match exactly.
//
// Every sink of c.Graph must be in res.Outputs — a missing one is an
// error, not a vacuous pass — and sinks are checked in
// c.Graph.Outputs() order, so the mismatch reported is the first one in
// that order.
func CheckOutputs(c *compiler.Compiled, inputs []float64, res *Result, tol float64) error {
	want, err := dag.Eval(c.Graph, inputs)
	if err != nil {
		return err
	}
	for _, sink := range c.Graph.Outputs() {
		got, present := res.Outputs[sink]
		if !present {
			return fmt.Errorf("sim: sink %d missing from the result", sink)
		}
		w := want[sink]
		ok := got == w || (math.IsNaN(got) && math.IsNaN(w))
		if !ok && !math.IsInf(got, 0) && !math.IsInf(w, 0) {
			ok = math.Abs(got-w) <= tol*(1+math.Abs(w))
		}
		if !ok {
			return fmt.Errorf("sim: sink %d = %v, reference %v", sink, got, w)
		}
	}
	return nil
}

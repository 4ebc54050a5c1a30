// Package dpuv2 is the public façade of the DPU-v2 reproduction: build or
// import an irregular computation DAG, compile it for a DPU-v2
// configuration, execute it, and read back verified results together
// with performance and energy estimates. Execution evaluates the
// compiled schedule directly (bit-exact with the cycle-accurate machine
// model, which `dpu-sim` steps instruction by instruction); the cycle
// and activity counts behind the estimates are read off the instruction
// stream — the datapath is static, so they are properties of the
// program, not of a run.
//
// The heavy lifting lives in the internal packages (see DESIGN.md for the
// map); this package re-exports the types a downstream user needs:
//
//	g := dpuv2.NewGraph("demo")
//	a, b := g.AddInput(), g.AddInput()
//	g.AddOp(dpuv2.OpMul, g.AddOp(dpuv2.OpAdd, a, b), g.AddConst(3))
//
//	prog, _ := dpuv2.Compile(g, dpuv2.MinEDP(), dpuv2.CompileOptions{})
//	res, _ := dpuv2.Execute(prog, []float64{2, 5})
//	fmt.Println(res.Outputs, res.Report.ThroughputGOPS)
package dpuv2

import (
	"errors"
	"fmt"
	"sync"

	"dpuv2/internal/arch"
	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
	"dpuv2/internal/energy"
	"dpuv2/internal/engine"
	"dpuv2/internal/par"
	"dpuv2/internal/sim"
)

// Re-exported DAG construction API.
type (
	// Graph is an irregular computation DAG under construction.
	Graph = dag.Graph
	// NodeID identifies a node within a Graph.
	NodeID = dag.NodeID
	// Op is a node operation (OpInput, OpConst, OpAdd, OpMul).
	Op = dag.Op
)

// Node operations.
const (
	OpInput = dag.OpInput
	OpConst = dag.OpConst
	OpAdd   = dag.OpAdd
	OpMul   = dag.OpMul
)

// NewGraph returns an empty DAG with a display name.
func NewGraph(name string) *Graph { return dag.New(name) }

// Config is a DPU-v2 hardware configuration (tree depth D, banks B,
// registers per bank R, output interconnect).
type Config = arch.Config

// MinEDP returns the configuration the paper's design-space exploration
// selects (D=3, B=64, R=32).
func MinEDP() Config { return arch.MinEDP() }

// Large returns the DPU-v2 (L) configuration used for multi-million-node
// circuits.
func Large() Config { return arch.Large() }

// CompileOptions tunes the compiler; the zero value matches the paper.
type CompileOptions = compiler.Options

// Program is a compiled, runnable DPU-v2 executable with its metadata.
type Program struct {
	compiled *compiler.Compiled
	// report is the program's performance and energy report, derived
	// once from the instruction stream: every execution has the same.
	report func() Report
}

func newProgram(c *compiler.Compiled) *Program {
	return &Program{compiled: c, report: sync.OnceValue(func() Report {
		est := energy.EstimateRun(c.Prog.Cfg, c.Stats.Nodes, sim.StaticStats(c.Prog), c.Prog)
		return Report{
			Cycles:         est.Cycles,
			ThroughputGOPS: est.ThroughputGOP,
			PowerMW:        est.PowerMW,
			EnergyPerOpPJ:  est.EnergyPerOp,
			EDP:            est.EDP,
		}
	})}
}

// Fingerprint is a stable content hash of a Graph (the compile-cache
// address of the serving engine).
type Fingerprint = dag.Fingerprint

// Compile lowers a DAG onto the given configuration using the four-step
// compiler of the paper (§IV). It is a thin wrapper over the package's
// default serving engine: structurally identical graphs compiled for the
// same configuration and options share one compilation.
func Compile(g *Graph, cfg Config, opts CompileOptions) (*Program, error) {
	return DefaultEngine().Compile(g, cfg, opts)
}

// Stats exposes what compilation did (instruction mix, conflicts
// repaired, spills, utilization).
func (p *Program) Stats() compiler.Stats { return p.compiled.Stats }

// BinarySize returns the densely packed program size in bytes.
func (p *Program) BinarySize() int { return (p.compiled.Prog.BitSize() + 7) / 8 }

// Binary returns the packed instruction stream (fig. 7(b)).
func (p *Program) Binary() []byte { return p.compiled.Prog.Pack() }

// Report summarizes one execution. It is the same for every execution
// of a Program: the schedule is static, so cycles and the activity
// behind the power model do not depend on the input values.
type Report struct {
	Cycles         int
	ThroughputGOPS float64
	PowerMW        float64
	EnergyPerOpPJ  float64
	EDP            float64 // pJ·ns per operation
}

// Result is a verified execution outcome. Outputs are keyed by the sink
// node ids of the compiled (binarized) graph; Sinks lists them in order.
type Result struct {
	Outputs map[NodeID]float64
	Sinks   []NodeID
	Report  Report
}

// Execute runs the program with the given input values (in graph-input
// order) and verifies every sink against the reference evaluator before
// returning. It is a thin wrapper over the package's default serving
// engine.
func Execute(p *Program, inputs []float64) (*Result, error) {
	return DefaultEngine().Execute(p, inputs)
}

// EngineOptions tune a serving Engine; the zero value is a
// production-ready default. An engine with a Store persists each fresh
// compilation to it in the background: call Engine.Flush before the
// program exits, or those artifacts may never be written.
type EngineOptions = engine.Options

// EngineStats is a snapshot of a serving engine's activity: compile-cache
// hits/misses/evictions, cached programs, in-flight and completed
// executions, artifact-store and verifier counters.
type EngineStats = engine.Stats

// Engine is the compile-once/execute-many serving layer: a
// content-addressed compile cache (single-flight, LRU-bounded) in front
// of a free list of reusable evaluators. One Engine serves any number of
// goroutines.
type Engine struct {
	e *engine.Engine
}

// NewEngine returns a serving engine with the given options.
func NewEngine(opts EngineOptions) *Engine {
	return &Engine{e: engine.New(opts)}
}

var defaultEngine = sync.OnceValue(func() *Engine { return NewEngine(EngineOptions{}) })

// DefaultEngine returns the process-wide engine backing the package-level
// Compile and Execute.
func DefaultEngine() *Engine { return defaultEngine() }

// Compile returns the compiled program for (g, cfg, opts), compiling at
// most once per content address: concurrent callers for the same graph,
// configuration and options share a single compilation; later callers
// hit the cache.
func (en *Engine) Compile(g *Graph, cfg Config, opts CompileOptions) (*Program, error) {
	c, err := en.e.Compile(g, cfg, opts)
	if err != nil {
		return nil, err
	}
	if c.CheckProgram() != nil {
		// A store-backed engine answers a payload it has verified before
		// from a serving decode, which leaves out the instruction stream
		// that Report and Binary read. Compilation is deterministic, so
		// compiling g again gives that stream.
		if c, err = compiler.Compile(g, cfg, opts); err != nil {
			return nil, err
		}
	}
	return newProgram(c), nil
}

// Execute runs the program, verifies every sink against the reference
// evaluator, and returns the verified result with the program's
// performance and energy report.
func (en *Engine) Execute(p *Program, inputs []float64) (*Result, error) {
	res, errs := en.execute(p, [][]float64{inputs})
	return res[0], errs[0]
}

// ExecuteBatch runs the program over a batch of input vectors on the
// engine's worker pool, each item executed and verified like Execute.
// Results come back in input order; failed items are nil with their
// errors joined, so callers can salvage the completed part of a batch.
func (en *Engine) ExecuteBatch(p *Program, batches [][]float64) ([]*Result, error) {
	res, errs := en.execute(p, batches)
	for i, err := range errs {
		if err != nil {
			errs[i] = fmt.Errorf("batch %d: %w", i, err)
		}
	}
	return res, errors.Join(errs...)
}

// execute is Execute and ExecuteBatch: one engine batch call, then every
// completed item checked against the reference evaluator. Item i's
// failure is errs[i], and res[i] is nil.
func (en *Engine) execute(p *Program, batches [][]float64) (res []*Result, errs []error) {
	c := p.compiled
	sinks := c.Graph.Outputs()
	n, w := len(batches), len(sinks)
	flat := make([]float64, n*w)
	outs := make([][]float64, n)
	for i := range outs {
		outs[i] = flat[i*w : (i+1)*w]
	}
	errs = make([]error, n)
	en.e.ExecuteBatchInto(c, batches, outs, nil, errs)
	res = make([]*Result, n)
	par.ForEach(n, 0, func(i int) {
		if errs[i] == nil {
			r := &sim.Result{Outputs: make(map[NodeID]float64, w)}
			for j, sink := range sinks {
				r.Outputs[sink] = outs[i][j]
			}
			if errs[i] = sim.CheckOutputs(c, batches[i], r, 0); errs[i] == nil {
				res[i] = &Result{Outputs: r.Outputs, Sinks: append([]NodeID(nil), sinks...), Report: p.report()}
			}
		}
		if errs[i] != nil {
			errs[i] = fmt.Errorf("dpuv2: %w", errs[i])
		}
	})
	return res, errs
}

// Stats returns a snapshot of the engine's counters.
func (en *Engine) Stats() EngineStats { return en.e.Stats() }

// Flush waits until every artifact the engine has started persisting to
// its Store is written. Without a Store it returns at once.
func (en *Engine) Flush() { en.e.Flush() }

// SinkOf maps a node id of the original (pre-binarization) graph to the
// corresponding sink id in Result.Outputs.
func (p *Program) SinkOf(original NodeID) NodeID {
	return p.compiled.Remap[original]
}

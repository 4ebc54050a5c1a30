// Package dse runs the design-space exploration of §V: the 48-point grid
// over tree depth D ∈ {1,2,3}, bank count B ∈ {8,16,32,64} and registers
// per bank R ∈ {16,32,64,128}, evaluating mean latency, energy and
// energy-delay product per operation across a workload suite (fig. 11 and
// fig. 12).
package dse

import (
	"context"
	"fmt"
	"math"

	"dpuv2/internal/arch"
	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
	"dpuv2/internal/energy"
	"dpuv2/internal/par"
	"dpuv2/internal/sim"
)

// Grid returns the paper's 48 sweep configurations with the per-layer
// output interconnect DPU-v2 selects.
func Grid() []arch.Config {
	var cfgs []arch.Config
	for _, d := range []int{1, 2, 3} {
		for _, b := range []int{8, 16, 32, 64} {
			for _, r := range []int{16, 32, 64, 128} {
				cfgs = append(cfgs, arch.Config{D: d, B: b, R: r, Output: arch.OutPerLayer})
			}
		}
	}
	return cfgs
}

// Point is the evaluated outcome of one configuration.
type Point struct {
	Cfg arch.Config
	// Per-operation means over the workload suite.
	LatencyPerOp float64 // ns
	EnergyPerOp  float64 // pJ
	EDP          float64 // pJ·ns
	AreaMM2      float64
	// Feasible is false when any workload failed to compile (e.g. the
	// register file cannot hold a block's working set).
	Feasible bool
	Err      error
}

// Evaluate compiles one workload for one config and models its
// execution. Nothing is simulated: cycles and activity are read off the
// instruction stream (sim.StaticStats), which is exactly what a run of
// the machine would count.
func Evaluate(g *dag.Graph, cfg arch.Config, opts compiler.Options) (energy.Estimate, error) {
	c, err := compiler.Compile(g, cfg, opts)
	if err != nil {
		return energy.Estimate{}, err
	}
	return energy.EstimateRun(cfg, c.Stats.Nodes, sim.StaticStats(c.Prog), c.Prog), nil
}

// evaluatePoint evaluates one configuration over the workload suite. An
// error on any workload marks the point infeasible and carries that
// error; evaluation of the remaining configurations is unaffected (no
// sweep-wide bail). Cancellation of ctx is checked between workloads, so
// a canceled point stops after the workload it is on rather than
// finishing the suite.
func evaluatePoint(ctx context.Context, workloads []*dag.Graph, cfg arch.Config, opts compiler.Options) Point {
	p := Point{Cfg: cfg.Normalize(), Feasible: true}
	var lat, en float64
	for _, g := range workloads {
		if err := ctx.Err(); err != nil {
			p.Feasible = false
			p.Err = err
			break
		}
		est, err := Evaluate(g, cfg, opts)
		if err != nil {
			p.Feasible = false
			p.Err = err
			break
		}
		lat += est.LatencyPerOp
		en += est.EnergyPerOp
		p.AreaMM2 = est.AreaMM2
	}
	if p.Feasible && len(workloads) > 0 {
		p.LatencyPerOp = lat / float64(len(workloads))
		p.EnergyPerOp = en / float64(len(workloads))
		p.EDP = p.LatencyPerOp * p.EnergyPerOp
	}
	return p
}

// Sweep evaluates every configuration over every workload and returns one
// Point per configuration with per-op metrics averaged over workloads,
// like the paper's fig. 11. It uses every available CPU; see
// SweepParallel for an explicit worker count.
func Sweep(workloads []*dag.Graph, cfgs []arch.Config, opts compiler.Options) []Point {
	return SweepParallel(workloads, cfgs, opts, 0)
}

// SweepParallel is Sweep with an explicit worker count (workers <= 0
// means GOMAXPROCS). Configurations are distributed over a worker pool;
// every point is evaluated independently, failures are captured per
// point, and the returned slice is in cfgs order regardless of worker
// interleaving — the output is point-for-point identical to a serial
// sweep because each evaluation is deterministic and shares nothing
// mutable.
func SweepParallel(workloads []*dag.Graph, cfgs []arch.Config, opts compiler.Options, workers int) []Point {
	return SweepContext(context.Background(), workloads, cfgs, opts, workers)
}

// SweepContext is SweepParallel with cancellation: when ctx is canceled
// (or its deadline expires) mid-sweep, configurations not yet evaluated
// are returned promptly as infeasible points carrying ctx's error, and a
// point mid-evaluation stops at its next workload boundary. The sweep
// never returns early — the slice always has one point per configuration,
// in cfgs order — so callers working under a budget (the autotuner) get
// whatever partial results the budget bought, each point labeled either
// with its metrics or with the cancellation error.
func SweepContext(ctx context.Context, workloads []*dag.Graph, cfgs []arch.Config, opts compiler.Options, workers int) []Point {
	// Force the lazily memoized graph adjacency into existence before
	// fanning out, so the workers strictly read the shared graphs.
	for _, g := range workloads {
		if g.NumNodes() > 0 {
			g.Outputs()
		}
	}
	points := make([]Point, len(cfgs))
	par.ForEach(len(cfgs), workers, func(i int) {
		if err := ctx.Err(); err != nil {
			points[i] = Point{Cfg: cfgs[i].Normalize(), Err: err}
			return
		}
		points[i] = evaluatePoint(ctx, workloads, cfgs[i], opts)
	})
	return points
}

// Metric selects the optimization target of Best.
type Metric int

const (
	MinLatency Metric = iota
	MinEnergy
	MinEDP
)

// String names the metric the way the CLIs spell it.
func (m Metric) String() string {
	switch m {
	case MinLatency:
		return "latency"
	case MinEnergy:
		return "energy"
	case MinEDP:
		return "edp"
	}
	return fmt.Sprintf("metric(%d)", int(m))
}

// ParseMetric is the inverse of String, for flag values.
func (m *Metric) ParseMetric(s string) error {
	switch s {
	case "latency":
		*m = MinLatency
	case "energy":
		*m = MinEnergy
	case "edp":
		*m = MinEDP
	default:
		return fmt.Errorf("dse: unknown metric %q (latency, energy or edp)", s)
	}
	return nil
}

// Value extracts the metric's per-op score from a point; lower is better.
func (m Metric) Value(p Point) float64 {
	switch m {
	case MinLatency:
		return p.LatencyPerOp
	case MinEnergy:
		return p.EnergyPerOp
	default:
		return p.EDP
	}
}

// ValueOf extracts the metric's per-op score from a single-workload
// estimate, the same quantity Value reads from a sweep point.
func (m Metric) ValueOf(est energy.Estimate) float64 {
	switch m {
	case MinLatency:
		return est.LatencyPerOp
	case MinEnergy:
		return est.EnergyPerOp
	default:
		return est.EDP
	}
}

// Best returns the feasible point minimizing the metric. Equal metric
// values break ties by the canonical config order (configLess), so the
// winner is a pure function of the candidate *set*, never of slice
// order — search-generated candidate lists (SearchAnneal) depend on
// this for reproducible winners at any worker count.
func Best(points []Point, m Metric) (Point, bool) {
	best := Point{}
	bestV := math.Inf(1)
	found := false
	for _, p := range points {
		if !p.Feasible {
			continue
		}
		v := m.Value(p)
		if !found || v < bestV || (v == bestV && configLess(p.Cfg, best.Cfg)) {
			bestV, best, found = v, p, true
		}
	}
	return best, found
}

// configLess is the canonical strict order on configurations used for
// tie-breaking: D, then B, then R, then Output, then DataMemWords
// (ClockMHz last for completeness).
func configLess(a, b arch.Config) bool {
	if a.D != b.D {
		return a.D < b.D
	}
	if a.B != b.B {
		return a.B < b.B
	}
	if a.R != b.R {
		return a.R < b.R
	}
	if a.Output != b.Output {
		return a.Output < b.Output
	}
	if a.DataMemWords != b.DataMemWords {
		return a.DataMemWords < b.DataMemWords
	}
	return a.ClockMHz < b.ClockMHz
}

// Package dse runs the design-space exploration of §V: the 48-point grid
// over tree depth D ∈ {1,2,3}, bank count B ∈ {8,16,32,64} and registers
// per bank R ∈ {16,32,64,128}, evaluating mean latency, energy and
// energy-delay product per operation across a workload suite (fig. 11 and
// fig. 12).
package dse

import (
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
				cfgs = append(cfgs, arch.Config{D: d, B: b, R: r})
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

// estimate models the execution of c, compiled for cfg. Nothing is
// simulated: cycles and activity are read off the instruction stream
// (sim.StaticStats), which is exactly what a run of the machine would
// count.
func estimate(cfg arch.Config, c *compiler.Compiled) energy.Estimate {
	return energy.EstimateRun(cfg, c.Stats.Nodes, sim.StaticStats(c.Prog), c.Prog)
}

// evaluateGroup evaluates cfgs[i] over the workload suite into points[i]
// for every i in group, configurations that differ in R alone. Only
// step 4 of the compiler reads R, so each workload is planned once for
// the group and emitted once per member.
//
// An error on any workload marks that point infeasible and carries the
// error (a plan error, every point still evaluating); the other points
// are unaffected (no sweep-wide bail).
func evaluateGroup(workloads []*dag.Graph, cfgs []arch.Config, group []int, opts compiler.Options, points []Point) {
	live := make([]int, 0, len(group)) // points still feasible
	for _, i := range group {
		points[i] = Point{Cfg: cfgs[i].Normalize(), Feasible: true}
		live = append(live, i)
	}
	fail := func(i int, err error) {
		p := &points[i]
		p.Feasible, p.Err = false, err
		p.LatencyPerOp, p.EnergyPerOp = 0, 0 // drop the partial sums
	}
	for _, g := range workloads {
		if len(live) == 0 {
			break
		}
		plan, err := compiler.Plan(g, cfgs[live[0]], opts)
		if err != nil {
			for _, i := range live {
				fail(i, err)
			}
			return
		}
		next := live[:0]
		for _, i := range live {
			c, err := plan.Emit(cfgs[i].R)
			if err != nil {
				fail(i, err)
				continue
			}
			est := estimate(cfgs[i], c)
			p := &points[i]
			p.LatencyPerOp += est.LatencyPerOp
			p.EnergyPerOp += est.EnergyPerOp
			p.AreaMM2 = est.AreaMM2
			next = append(next, i)
		}
		live = next
	}
	if len(workloads) == 0 {
		return
	}
	for _, i := range live {
		p := &points[i]
		p.LatencyPerOp /= float64(len(workloads))
		p.EnergyPerOp /= float64(len(workloads))
		p.EDP = p.LatencyPerOp * p.EnergyPerOp
	}
}

// SweepParallel evaluates every configuration over every workload and
// returns one Point per configuration with per-op metrics averaged over
// workloads, like the paper's fig. 11, on workers goroutines (workers <= 0
// means GOMAXPROCS). The configurations that differ only in R form one
// group, which plans each workload once (evaluateGroup); groups are
// distributed over a worker pool, failures are captured per point, and
// the returned slice is in cfgs order regardless of worker interleaving.
// Every point is what evaluating it alone gives, because compilation is
// deterministic and the groups share nothing mutable.
func SweepParallel(workloads []*dag.Graph, cfgs []arch.Config, opts compiler.Options, workers int) []Point {
	var groups [][]int
	groupOf := make(map[arch.Config]int)
	for i, c := range cfgs {
		key := c.Normalize()
		key.R = 0
		k, ok := groupOf[key]
		if !ok {
			k = len(groups)
			groupOf[key] = k
			groups = append(groups, nil)
		}
		groups[k] = append(groups[k], i)
	}
	points := make([]Point, len(cfgs))
	par.ForEach(len(groups), workers, func(k int) {
		evaluateGroup(workloads, cfgs, groups[k], opts, points)
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

// Best returns the feasible point minimizing the metric. Equal metric
// values break ties by the canonical config order (configLess), so the
// winner is a pure function of the candidate *set*, never of slice
// order.
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
// tie-breaking: D, then B, then R, then Output, then DataMemWords.
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
	return a.DataMemWords < b.DataMemWords
}

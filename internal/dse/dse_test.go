package dse

import (
	"fmt"
	"testing"

	"dpuv2/internal/arch"
	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
	"dpuv2/internal/energy"
	"dpuv2/internal/par"
	"dpuv2/internal/pc"
	"dpuv2/internal/sim"
	"dpuv2/internal/sptrsv"
)

func smallSuite() []*dag.Graph {
	g1 := pc.Build(pc.Suite()[0], 0.05)
	g2, _ := sptrsv.Build(sptrsv.Suite()[0], 0.05)
	return []*dag.Graph{g1, g2}
}

// evaluate compiles g for cfg and returns the sweep's per-point
// estimate of its execution.
func evaluate(t *testing.T, g *dag.Graph, cfg arch.Config) energy.Estimate {
	t.Helper()
	c, err := compiler.Compile(g, cfg, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return estimate(cfg, c)
}

func TestGridHas48Points(t *testing.T) {
	cfgs := Grid()
	if len(cfgs) != 48 {
		t.Fatalf("grid has %d points, want 48", len(cfgs))
	}
	for _, c := range cfgs {
		if err := c.Validate(); err != nil {
			t.Errorf("%v: %v", c, err)
		}
	}
}

func TestEvaluateProducesSaneMetrics(t *testing.T) {
	g := pc.Build(pc.Suite()[0], 0.05)
	est := evaluate(t, g, arch.MinEDP())
	if est.LatencyPerOp <= 0 || est.EnergyPerOp <= 0 || est.EDP <= 0 {
		t.Fatalf("non-positive metrics: %+v", est)
	}
	if est.LatencyPerOp > 100 {
		t.Fatalf("latency/op %.1f ns implausible (paper range 0.2–3.5)", est.LatencyPerOp)
	}
}

// TestEvaluateMatchesSimulation pins the claim the sweep's per-point
// estimate rests on: the estimate it derives from the instruction
// stream is, field for field, the estimate over the statistics a
// cycle-accurate run counts — on every grid point, for a circuit and a
// triangular solve.
func TestEvaluateMatchesSimulation(t *testing.T) {
	for _, g := range smallSuite() {
		for _, cfg := range Grid() {
			c, err := compiler.Compile(g, cfg, compiler.Options{})
			if err != nil {
				continue // infeasible point
			}
			got := estimate(cfg, c)
			inputs := make([]float64, len(c.Graph.Inputs()))
			for i := range inputs {
				inputs[i] = 0.25 + 0.5*float64(i%3)
			}
			res, err := sim.Run(c, inputs)
			if err != nil {
				t.Fatalf("%s on %v: %v", g.Name, cfg, err)
			}
			if want := energy.EstimateRun(cfg, c.Stats.Nodes, res.Stats, c.Prog); got != want {
				t.Errorf("%s on %v: estimate %+v, simulated %+v", g.Name, cfg, got, want)
			}
		}
	}
}

func TestSweepAndBest(t *testing.T) {
	suite := smallSuite()
	cfgs := []arch.Config{
		{D: 1, B: 8, R: 32, Output: arch.OutPerLayer},
		{D: 2, B: 16, R: 32, Output: arch.OutPerLayer},
		{D: 3, B: 64, R: 32, Output: arch.OutPerLayer},
	}
	points := SweepParallel(suite, cfgs, compiler.Options{}, 0)
	if len(points) != len(cfgs) {
		t.Fatalf("got %d points", len(points))
	}
	feasible := 0
	for _, p := range points {
		if p.Feasible {
			feasible++
		}
	}
	if feasible == 0 {
		t.Fatal("no feasible points")
	}
	bestLat, ok := Best(points, MinLatency)
	if !ok {
		t.Fatal("no best point")
	}
	bestEDP, _ := Best(points, MinEDP)
	bestE, _ := Best(points, MinEnergy)
	// The deepest/widest datapath should win latency on parallel DAGs.
	if bestLat.Cfg.D != 3 {
		t.Errorf("min-latency config %v, expected the D=3 point", bestLat.Cfg)
	}
	for _, p := range points {
		if p.Feasible && p.EDP < bestEDP.EDP {
			t.Errorf("Best(MinEDP) missed %v", p.Cfg)
		}
		if p.Feasible && p.EnergyPerOp < bestE.EnergyPerOp {
			t.Errorf("Best(MinEnergy) missed %v", p.Cfg)
		}
	}
}

// TestMinLatencyPointStrictlyFasterThanDefault pins the claim that
// per-graph configuration would buy cycles on the machine: on tretail
// the grid's min-latency point runs strictly fewer cycles (about 3%)
// than the paper's min-EDP configuration. The serving path nevertheless
// runs every graph on one config — the paper's chip is fixed at
// synthesis — so the win is reported by the grid sweep, not served.
func TestMinLatencyPointStrictlyFasterThanDefault(t *testing.T) {
	g := pc.Build(pc.Suite()[0], 0.02) // tretail
	points := SweepParallel([]*dag.Graph{g}, Grid(), compiler.Options{}, 0)
	best, ok := Best(points, MinLatency)
	if !ok {
		t.Fatal("no feasible grid point")
	}
	fast, def := evaluate(t, g, best.Cfg), evaluate(t, g, arch.MinEDP())
	if fast.Cycles >= def.Cycles {
		t.Fatalf("min-latency %v runs %d cycles, default %v runs %d — not strictly faster",
			best.Cfg, fast.Cycles, arch.MinEDP(), def.Cycles)
	}
	t.Logf("min-latency %v: %d cycles vs default %d cycles (%.1f%% faster)",
		best.Cfg, fast.Cycles, def.Cycles, 100*float64(def.Cycles-fast.Cycles)/float64(def.Cycles))
}

// TestSweepParallelMatchesSerial asserts the worker pool changes nothing
// observable: every point of a parallel sweep must be identical,
// field for field, to the serial sweep — including captured errors on
// infeasible points.
func TestSweepParallelMatchesSerial(t *testing.T) {
	suite := smallSuite()
	// A slice of the real grid plus a deliberately infeasible point so
	// the comparison covers the error-capture path.
	cfgs := []arch.Config{
		{D: 1, B: 8, R: 32, Output: arch.OutPerLayer},
		{D: 2, B: 16, R: 32, Output: arch.OutPerLayer},
		{D: 2, B: 16, R: 64, Output: arch.OutCrossbar},
		{D: 3, B: 32, R: 16, Output: arch.OutPerLayer},
		{D: 3, B: 64, R: 32, Output: arch.OutPerLayer},
		{D: 3, B: 8, R: 2, Output: arch.OutPerLayer}, // likely infeasible: tiny R
	}
	serial := SweepParallel(suite, cfgs, compiler.Options{}, 1)
	for _, workers := range []int{2, 4, len(cfgs) + 3} {
		parallel := SweepParallel(suite, cfgs, compiler.Options{}, workers)
		if len(parallel) != len(serial) {
			t.Fatalf("workers=%d: %d points, serial has %d", workers, len(parallel), len(serial))
		}
		for i := range serial {
			if !samePoint(parallel[i], serial[i]) {
				t.Errorf("workers=%d point %d: parallel %+v != serial %+v", workers, i, parallel[i], serial[i])
			}
		}
	}
}

// samePoint reports whether a and b agree on every field, errors by text.
func samePoint(a, b Point) bool {
	ea, eb := a.Err, b.Err
	a.Err, b.Err = nil, nil
	return a == b && (ea == nil) == (eb == nil) && (ea == nil || ea.Error() == eb.Error())
}

// TestSweepMatchesPerPoint: a sweep plans each workload once per group of
// configurations that differ only in R and emits once per R; every point
// must be what evaluating its configuration alone gives, at any worker
// count. Besides the grid, the list has a point that fails at emission in
// a group whose other points do not (R=1), a group that fails at planning
// (B=128 exceeds the bank allocator) and a group under another topology.
func TestSweepMatchesPerPoint(t *testing.T) {
	suite := smallSuite()
	cfgs := append(Grid(),
		arch.Config{D: 1, B: 8, R: 1, Output: arch.OutPerLayer},
		arch.Config{D: 3, B: 128, R: 16, Output: arch.OutPerLayer},
		arch.Config{D: 3, B: 128, R: 32, Output: arch.OutPerLayer},
		arch.Config{D: 2, B: 16, R: 64, Output: arch.OutCrossbar},
		arch.Config{D: 2, B: 16, R: 16, Output: arch.OutCrossbar},
	)
	want := make([]Point, len(cfgs))
	feasible := 0
	for i, cfg := range cfgs {
		want[i] = SweepParallel(suite, []arch.Config{cfg}, compiler.Options{}, 1)[0]
		if want[i].Feasible {
			feasible++
		}
	}
	if feasible != len(cfgs)-3 {
		t.Fatalf("%d of %d points feasible, want all but the R=1 and B=128 points", feasible, len(cfgs))
	}
	for _, workers := range []int{1, 2, 4} {
		got := SweepParallel(suite, cfgs, compiler.Options{}, workers)
		if len(got) != len(cfgs) {
			t.Fatalf("workers=%d: %d points for %d configurations", workers, len(got), len(cfgs))
		}
		for i := range want {
			if !samePoint(got[i], want[i]) {
				t.Errorf("workers=%d point %d: swept %+v, alone %+v", workers, i, got[i], want[i])
			}
		}
	}
}

func TestMetricValueReadsPointFields(t *testing.T) {
	p := Point{LatencyPerOp: 1, EnergyPerOp: 2, EDP: 3}
	if MinLatency.Value(p) != 1 || MinEnergy.Value(p) != 2 || MinEDP.Value(p) != 3 {
		t.Fatalf("Value reads the wrong fields: %v %v %v",
			MinLatency.Value(p), MinEnergy.Value(p), MinEDP.Value(p))
	}
}

func TestInfeasiblePointReported(t *testing.T) {
	// A graph with a huge working set cannot compile at tiny R.
	g := dag.RandomGraph(dag.RandomConfig{Inputs: 400, Interior: 3000, MaxArgs: 2, MulFrac: 0.5, Seed: 2})
	points := SweepParallel([]*dag.Graph{g}, []arch.Config{{D: 3, B: 8, R: 2, Output: arch.OutPerLayer}}, compiler.Options{}, 0)
	if len(points) != 1 {
		t.Fatal("want one point")
	}
	if points[0].Feasible {
		t.Skip("tiny-R point unexpectedly feasible for this graph")
	}
	if points[0].Err == nil {
		t.Fatal("infeasible point must carry its error")
	}
}

// TestBestTieBreakIsCanonical pins the tie-breaking contract: among
// points with deliberately duplicated metric values, Best picks the one
// first in canonical config order (D, then B, then R, then Output, then
// DataMemWords) no matter how the slice is ordered, so the winner
// depends on the candidate set alone.
func TestBestTieBreakIsCanonical(t *testing.T) {
	mk := func(d, b, r int, out arch.OutputTopology, mem int, edp float64) Point {
		cfg := arch.Config{D: d, B: b, R: r, Output: out, DataMemWords: mem}.Normalize()
		return Point{Cfg: cfg, EDP: edp, Feasible: true}
	}
	tied := []Point{
		mk(3, 64, 32, arch.OutPerLayer, 0, 5),
		mk(2, 16, 8, arch.OutPerPE, 0, 5),
		mk(2, 16, 8, arch.OutPerLayer, 1<<20, 5),
		mk(2, 16, 8, arch.OutPerLayer, 0, 5), // canonical winner
		mk(2, 64, 8, arch.OutPerLayer, 0, 5),
		mk(1, 8, 16, arch.OutPerLayer, 0, 7), // worse score, better order: must lose
	}
	want := tied[3].Cfg

	// Every rotation of the slice must elect the same winner.
	for shift := range tied {
		rotated := append(append([]Point{}, tied[shift:]...), tied[:shift]...)
		best, ok := Best(rotated, MinEDP)
		if !ok {
			t.Fatal("no feasible point")
		}
		if best.Cfg != want {
			t.Fatalf("rotation %d: winner %v, want %v", shift, best.Cfg, want)
		}
	}

	// A strictly better score still beats a canonically smaller config.
	withWin := append([]Point{mk(6, 128, 256, arch.OutPerPE, 0, 4)}, tied...)
	if best, _ := Best(withWin, MinEDP); best.EDP != 4 {
		t.Fatalf("tie-break overrode a strictly better score: %+v", best)
	}
}

// tableI builds the twelve Table I graphs at scale.
func tableI(scale float64) []*dag.Graph {
	var gs []*dag.Graph
	for _, s := range pc.Suite() {
		gs = append(gs, pc.Build(s, scale))
	}
	for _, s := range sptrsv.Suite() {
		g, _ := sptrsv.Build(s, scale)
		gs = append(gs, g)
	}
	return gs
}

// TestCyclesAboveBound: no compiled program runs in fewer cycles than
// sim.LowerBound allows, over the 48-point grid on the Table I graphs at
// scale 0.1, and at 1.0 outside -short. A program under the bound means
// the compiler emitted something the machine cannot do in that time, or
// the bound's terms are wrong.
func TestCyclesAboveBound(t *testing.T) {
	scales := []float64{0.1}
	if !testing.Short() {
		scales = append(scales, 1.0)
	}
	cfgs := Grid()
	for _, scale := range scales {
		for _, g := range tableI(scale) {
			errs := make([]string, len(cfgs))
			par.ForEach(len(cfgs)/4, 0, func(k int) {
				// Grid() lists the four R of one datapath in a row.
				plan, err := compiler.Plan(g, cfgs[4*k], compiler.Options{})
				if err != nil {
					return
				}
				for _, cfg := range cfgs[4*k : 4*k+4] {
					c, err := plan.Emit(cfg.R)
					if err != nil {
						continue // the register file cannot hold a block
					}
					if b := sim.LowerBound(c.Graph, cfg); c.Stats.Cycles < b.Cycles {
						errs[4*k] += fmt.Sprintf("%s@%g %v: %d cycles under the bound %+v\n", g.Name, scale, cfg, c.Stats.Cycles, b)
					}
				}
			})
			for _, e := range errs {
				if e != "" {
					t.Error(e)
				}
			}
		}
	}
}

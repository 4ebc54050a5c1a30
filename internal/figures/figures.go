package figures

import (
	"fmt"
	"strconv"

	"dpuv2/internal/arch"
	"dpuv2/internal/baseline"
	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
	"dpuv2/internal/dse"
	"dpuv2/internal/regfile"
	"dpuv2/internal/spatial"
)

// Fig1c reproduces the motivation plot: CPU and GPU throughput versus DAG
// size, far below peak, with the GPU losing to the CPU under ~100k nodes.
func (r *Runner) Fig1c() (*Table, error) {
	t := &Table{
		Title: "Fig 1(c) — CPU/GPU throughput vs DAG size (modeled GOPS)",
		Key:   "nodes",
		Cols:  []Col{{"n/l", "%.0f"}, {"CPU", "%.2f"}, {"GPU", "%.2f"}},
		Notes: []string{"(CPU peak would be ~3400 GOPS: both platforms sit orders of magnitude below)"},
	}
	for _, n := range []int{3_000, 10_000, 30_000, 100_000, 300_000, 1_000_000, 3_000_000} {
		w := baseline.Workload{Nodes: n, LongestPath: 40 + n/1500}
		t.add(strconv.Itoa(n), float64(w.Nodes)/float64(w.LongestPath),
			baseline.Throughput(baseline.CPU, w), baseline.Throughput(baseline.GPU, w))
	}
	return t, nil
}

// systolicSeed seeds fig. 3(c)'s random placement of graph nodes onto
// the systolic array.
const systolicSeed = 1

// Fig3c reproduces the datapath-shape study: peak utilization of a
// systolic array versus a PE tree as the input count grows.
func (r *Runner) Fig3c() (*Table, error) {
	bg, _ := dag.Binarize(r.suite()[0].graph)
	t := &Table{
		Title: "Fig 3(c) — peak datapath utilization vs inputs (tretail stand-in)",
		Key:   "inputs",
		Cols:  cols("%.0f%%", "systolic", "tree"),
	}
	for _, n := range []int{2, 4, 8, 16} {
		tree, err := spatial.TreePeakUtil(bg, n)
		if err != nil {
			return nil, err
		}
		t.add(strconv.Itoa(n), 100*spatial.SystolicPeakUtil(bg, n, 300, systolicSeed), 100*tree)
	}
	return t, nil
}

// Fig6e reproduces the interconnect study: bank conflicts per topology,
// normalized to the double-crossbar design (a).
func (r *Runner) Fig6e() (*Table, error) {
	topologies := []struct {
		name  string
		t     arch.OutputTopology
		paper float64
	}{
		{"(a) crossbar/crossbar", arch.OutCrossbar, 1},
		{"(b) crossbar/one-PE-per-layer", arch.OutPerLayer, 1.4},
		{"(c) crossbar/one-PE", arch.OutPerPE, 2.4},
	}
	totals := make([]float64, len(topologies))
	for ti, tp := range topologies {
		for _, w := range r.suite() {
			ev, err := r.eval(w, arch.Config{D: 3, B: 64, R: 32, Output: tp.t}, compiler.Options{})
			if err != nil {
				return nil, err
			}
			totals[ti] += float64(ev.compiled.Stats.CopiedWords)
		}
	}
	// Normalize to the first topology with any conflicts: the conflict-
	// aware allocator can drive design (a) all the way to zero, in which
	// case (b) becomes the 1× reference.
	base := 1.0
	for i := len(totals) - 1; i >= 0; i-- {
		if totals[i] > 0 {
			base = totals[i]
		}
	}
	t := &Table{
		Title: "Fig 6(e) — bank conflicts by interconnect topology (normalized)",
		Key:   "topology",
		Cols:  []Col{{"conflicts", "%.0f"}, {"normalized", "%.2fx"}},
		Notes: []string{"(the paper's (c) goes up to 19x; design (b) is chosen for its latency/power trade-off)"},
	}
	for ti, tp := range topologies {
		t.Rows = append(t.Rows, Row{tp.name, []float64{totals[ti], totals[ti] / base}, []float64{none, tp.paper}})
	}
	return t, nil
}

// Fig10b reproduces the allocator study: conflicts under conflict-aware
// versus random bank allocation. The reduction is reported only when
// the conflict-aware allocator leaves any conflict to divide by.
func (r *Runner) Fig10b() (*Table, error) {
	w := r.suite()[0] // tretail stand-in
	ours, err := r.eval(w, arch.MinEDP(), compiler.Options{})
	if err != nil {
		return nil, err
	}
	random, err := r.eval(w, arch.MinEDP(), compiler.Options{RandomBanks: true})
	if err != nil {
		return nil, err
	}
	o, rc := float64(ours.compiled.Stats.CopiedWords), float64(random.compiled.Stats.CopiedWords)
	reduction := none
	if o > 0 {
		reduction = rc / o
	}
	return &Table{
		Title: "Fig 10(b) — bank conflicts: conflict-aware vs random allocation",
		Key:   "workload",
		Cols:  []Col{{"random", "%.0f"}, {"ours", "%.0f"}, {"reduction", "%.0fx"}},
		Rows:  []Row{{w.name, []float64{rc, o, reduction}, []float64{none, none, 292}}},
	}, nil
}

// Fig10cd reproduces the register-occupancy traces: active registers per
// bank over time, without spilling (R large) and with spilling (R=32).
// Occupancy is sampled every 200 cycles, and about 12 samples are shown.
func (r *Runner) Fig10cd() (*Table, error) {
	// msnbc: at scale 1.0 its live set (peak 58) outgrows R=32, which
	// spills; at scale 0.25 and below the peak is 17 and nothing spills.
	w := r.suite()[3]
	t := &Table{
		Title: "Fig 10(c,d) — active registers per bank over time",
		Key:   "variant",
		Cols:  cols("%.0f", "R", "spills", "peak"),
		Notes: []string{"(peak: the fullest bank at any sampled cycle; balance max-min stays small per paper obj. J)"},
	}
	for _, variant := range []struct {
		name string
		r    int
	}{{"without spilling", 256}, {"with spilling", 32}} {
		cfg := arch.Config{D: 3, B: 64, R: variant.r}
		c, err := compiler.Compile(w.graph, cfg, compiler.Options{})
		if err != nil {
			return nil, err
		}
		trace := &Table{
			Title: variant.name + " (R=" + strconv.Itoa(variant.r) + "):",
			Key:   "cycle",
			Cols:  cols("%.0f", "min", "avg", "max"),
		}
		peak := 0
		err = regfile.Occupancy(c.Prog, func(cycle int, perBank []int) {
			if cycle%200 != 0 {
				return
			}
			mn, mx, sum := perBank[0], perBank[0], 0
			for _, o := range perBank {
				mn, mx, sum = min(mn, o), max(mx, o), sum+o
			}
			peak = max(peak, mx)
			trace.add(strconv.Itoa(cycle), float64(mn), float64(sum/len(perBank)), float64(mx))
		})
		if err != nil {
			return nil, err
		}
		if step := len(trace.Rows) / 12; step > 1 {
			var kept []Row
			for i := 0; i < len(trace.Rows); i += step {
				kept = append(kept, trace.Rows[i])
			}
			trace.Rows = kept
		}
		t.add(variant.name, float64(variant.r), float64(c.Stats.SpillStores), float64(peak))
		t.Parts = append(t.Parts, trace)
	}
	return t, nil
}

// dsePoints runs the 48-point sweep over the 12 small-suite graphs once
// per Runner, for fig. 11 and fig. 12.
func (r *Runner) dsePoints() []dse.Point {
	if r.sweep == nil {
		var graphs []*dag.Graph
		for _, w := range r.suite() {
			graphs = append(graphs, w.graph)
		}
		r.sweep = dse.SweepParallel(graphs, dse.Grid(), compiler.Options{}, r.cfg.Workers)
	}
	return r.sweep
}

// Fig11 reproduces the design-space exploration: latency, energy, EDP
// per operation and area across the 48 (D,B,R) points, and the three
// optima beside the design points the paper's exploration found.
func (r *Runner) Fig11() (*Table, error) {
	points := r.dsePoints()
	t := &Table{
		Title: fmt.Sprintf("Fig 11 — design space exploration (%d configurations, per-op means over %d workloads)",
			len(points), len(r.suite())),
		Key:  "config",
		Cols: []Col{{"lat(ns)", "%.3f"}, {"E(pJ)", "%.2f"}, {"EDP(pJ*ns)", "%.2f"}, {"area(mm2)", "%.2f"}},
	}
	for _, p := range points {
		if p.Feasible {
			t.add(p.Cfg.String(), p.LatencyPerOp, p.EnergyPerOp, p.EDP, p.AreaMM2)
		} else {
			t.add(p.Cfg.String(), none, none, none, none)
			t.Notes = append(t.Notes, p.Cfg.String()+" infeasible: "+p.Err.Error())
		}
	}
	dbr := func(c arch.Config) []float64 { return []float64{float64(c.D), float64(c.B), float64(c.R)} }
	optima := &Table{Title: "optima:", Key: "optimum", Cols: append(cols("%.0f", "D", "B", "R"), Col{"EDP(pJ*ns)", "%.2f"})}
	for _, o := range []struct {
		name     string
		m        dse.Metric
		paper    arch.Config
		paperEDP float64
	}{
		{"min latency", dse.MinLatency, arch.MinLatency(), none},
		{"min energy", dse.MinEnergy, arch.MinEnergy(), none},
		{"min EDP", dse.MinEDP, arch.MinEDP(), 6.0},
	} {
		if p, ok := dse.Best(points, o.m); ok {
			optima.Rows = append(optima.Rows, Row{o.name, append(dbr(p.Cfg), p.EDP), append(dbr(o.paper), o.paperEDP)})
		}
	}
	t.Parts = []*Table{optima}
	return t, nil
}

// Fig12 reproduces the latency-energy scatter with the iso-EDP curve
// through the min-EDP point (fig. 11's optima hold that point beside the
// paper's).
func (r *Runner) Fig12() (*Table, error) {
	points := r.dsePoints()
	best, ok := dse.Best(points, dse.MinEDP)
	if !ok {
		return nil, fmt.Errorf("figures: no feasible DSE point")
	}
	t := &Table{
		Title: "Fig 12 — latency vs energy scatter (vs iso-EDP through min-EDP point)",
		Key:   "config",
		Cols:  []Col{{"lat(ns)", "%.3f"}, {"E(pJ)", "%.2f"}, {"EDP/minEDP", "%.2f"}},
	}
	for _, p := range points {
		if p.Feasible {
			t.add(p.Cfg.String(), p.LatencyPerOp, p.EnergyPerOp, p.EDP/best.EDP)
		}
	}
	return t, nil
}

// Fig13 reproduces the instruction-category breakdown per workload.
func (r *Runner) Fig13() (*Table, error) {
	t := &Table{
		Title: "Fig 13 — instruction breakdown (% of instructions)",
		Key:   "workload",
		Cols:  append(cols("%.1f%%", "exec", "load", "store", "copy", "nop"), Col{"total", "%.0f"}),
	}
	for _, w := range r.suite() {
		ev, err := r.eval(w, arch.MinEDP(), compiler.Options{})
		if err != nil {
			return nil, err
		}
		counts := ev.compiled.Prog.Counts()
		total := float64(len(ev.compiled.Prog.Instrs))
		pct := func(k arch.Kind) float64 { return 100 * float64(counts[k]) / total }
		t.add(w.name, pct(arch.KindExec), pct(arch.KindLoad), pct(arch.KindStore)+pct(arch.KindStore4),
			pct(arch.KindCopy), pct(arch.KindNop), total)
	}
	return t, nil
}

// The modeled platforms fig. 14(a) and (b) compare DPU-v2 against.
var (
	smallPlatforms = []baseline.Platform{baseline.DPU1, baseline.CPU, baseline.GPU}
	largePlatforms = []baseline.Platform{baseline.SPU, baseline.CPUSPU, baseline.CPU, baseline.GPU}
)

// batchCores is the number of DPU-v2 (L) cores running the large PCs in
// batch (§V-C2).
const batchCores = 4

// Fig14a reproduces the per-workload throughput comparison on the small
// suites: DPU-v2 (simulated) vs DPU/CPU/GPU (modeled).
func (r *Runner) Fig14a() (*Table, error) {
	return r.throughput("Fig 14(a) — throughput per workload (GOPS)", "DPU-v2", r.suite(),
		arch.MinEDP(), compiler.Options{}, 1, smallPlatforms, []float64{4.2, 3.1, 1.2, 0.4})
}

// Fig14b reproduces the large-PC throughput comparison: DPU-v2 (L) with 4
// batch cores vs SPU/CPU_SPU/CPU/GPU.
func (r *Runner) Fig14b() (*Table, error) {
	return r.throughput("Fig 14(b) — large-PC throughput (GOPS)", "DPU-v2(L)", r.largeSuite(),
		arch.Large(), compiler.Options{PartitionSize: 20000}, batchCores, largePlatforms, []float64{34.6, 22.2, 1.7, 1.8, 4.6})
}

// throughput tabulates GOPS per workload: DPU-v2 on cfg times its core
// count, then each modeled platform on the workload's full size, and
// each column's mean beside the paper's.
func (r *Runner) throughput(title, dpu string, ws []workload, cfg arch.Config, opts compiler.Options,
	cores float64, platforms []baseline.Platform, paper []float64) (*Table, error) {
	t := &Table{Title: title, Key: "workload", Cols: cols("%.2f", dpu)}
	for _, p := range platforms {
		t.Cols = append(t.Cols, Col{p.String(), "%.2f"})
	}
	means := make([]float64, len(t.Cols))
	for _, w := range ws {
		ev, err := r.eval(w, cfg, opts)
		if err != nil {
			return nil, err
		}
		row := []float64{cores * ev.est.ThroughputGOP}
		for _, p := range platforms {
			row = append(row, baseline.Throughput(p, w.full))
		}
		for i, v := range row {
			means[i] += v
		}
		t.add(w.name, row...)
	}
	for i := range means {
		means[i] /= float64(len(ws))
	}
	t.Rows = append(t.Rows, Row{"mean", means, paper})
	return t, nil
}

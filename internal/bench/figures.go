package bench

import (
	"fmt"
	"strings"

	"dpuv2/internal/arch"
	"dpuv2/internal/baseline"
	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
	"dpuv2/internal/dse"
	"dpuv2/internal/pc"
	"dpuv2/internal/regfile"
	"dpuv2/internal/spatial"
	"dpuv2/internal/sptrsv"
)

// Fig1c reproduces the motivation plot: CPU and GPU throughput versus DAG
// size, far below peak, with the GPU losing to the CPU under ~100k nodes.
func (r *Runner) Fig1c() (string, error) {
	var sb strings.Builder
	sb.WriteString("Fig 1(c) — CPU/GPU throughput vs DAG size (modeled GOPS)\n")
	fmt.Fprintf(&sb, "%10s %8s %8s %8s\n", "nodes", "n/l", "CPU", "GPU")
	for _, n := range []int{3_000, 10_000, 30_000, 100_000, 300_000, 1_000_000, 3_000_000} {
		w := baseline.Workload{Nodes: n, LongestPath: 40 + n/1500}
		fmt.Fprintf(&sb, "%10d %8.0f %8.2f %8.2f\n",
			n, float64(w.Nodes)/float64(w.LongestPath),
			baseline.Throughput(baseline.CPU, w),
			baseline.Throughput(baseline.GPU, w))
	}
	sb.WriteString("(CPU peak would be ~3400 GOPS: both platforms sit orders of magnitude below)\n")
	return sb.String(), nil
}

// Fig3c reproduces the datapath-shape study: peak utilization of a
// systolic array versus a PE tree as the input count grows.
func (r *Runner) Fig3c() (string, error) {
	g := pc.Build(pc.Suite()[0], r.cfg.Scale)
	bg, _ := dag.Binarize(g)
	var sb strings.Builder
	sb.WriteString("Fig 3(c) — peak datapath utilization vs inputs (tretail stand-in)\n")
	fmt.Fprintf(&sb, "%8s %10s %8s\n", "inputs", "systolic", "tree")
	for _, n := range []int{2, 4, 8, 16} {
		sys := spatial.SystolicPeakUtil(bg, n, 300, r.cfg.Seed+1)
		tree, err := spatial.TreePeakUtil(bg, n)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&sb, "%8d %9.0f%% %7.0f%%\n", n, 100*sys, 100*tree)
	}
	return sb.String(), nil
}

// Fig6e reproduces the interconnect study: bank conflicts per topology,
// normalized to the double-crossbar design (a).
func (r *Runner) Fig6e() (string, error) {
	topologies := []struct {
		name string
		t    arch.OutputTopology
	}{
		{"(a) crossbar/crossbar", arch.OutCrossbar},
		{"(b) crossbar/one-PE-per-layer", arch.OutPerLayer},
		{"(c) crossbar/one-PE", arch.OutPerPE},
	}
	totals := make([]float64, len(topologies))
	for ti, tp := range topologies {
		for _, w := range r.suite() {
			cfg := arch.Config{D: 3, B: 64, R: 32, Output: tp.t}
			ev, err := r.eval(w, cfg, compiler.Options{Seed: r.cfg.Seed})
			if err != nil {
				return "", err
			}
			totals[ti] += float64(ev.compiled.Stats.CopiedWords)
		}
	}
	// Normalize to the first topology with any conflicts: the conflict-
	// aware allocator can drive design (a) all the way to zero, in which
	// case (b) becomes the 1× reference.
	base := 0.0
	for _, t := range totals {
		if t > 0 {
			base = t
			break
		}
	}
	if base == 0 {
		base = 1
	}
	var sb strings.Builder
	sb.WriteString("Fig 6(e) — bank conflicts by interconnect topology (normalized)\n")
	for ti, tp := range topologies {
		fmt.Fprintf(&sb, "%-32s %10.0f conflicts %8.2fx\n", tp.name, totals[ti], totals[ti]/base)
	}
	sb.WriteString("(paper: 1x, 1.4x, 2.4x…19x — design (b) chosen for its latency/power trade-off)\n")
	return sb.String(), nil
}

// Fig10b reproduces the allocator study: conflicts under conflict-aware
// versus random bank allocation.
func (r *Runner) Fig10b() (string, error) {
	w := r.suite()[0] // tretail stand-in
	ours, err := r.eval(w, arch.MinEDP(), compiler.Options{Seed: r.cfg.Seed})
	if err != nil {
		return "", err
	}
	random, err := r.eval(w, arch.MinEDP(), compiler.Options{Seed: r.cfg.Seed, RandomBanks: true})
	if err != nil {
		return "", err
	}
	o := float64(ours.compiled.Stats.CopiedWords)
	rc := float64(random.compiled.Stats.CopiedWords)
	if o == 0 {
		o = 0.5 // avoid infinite ratio when the allocator is perfect
	}
	var sb strings.Builder
	sb.WriteString("Fig 10(b) — bank conflicts: conflict-aware vs random allocation\n")
	fmt.Fprintf(&sb, "random: %6.0f conflicts\nours:   %6.0f conflicts\nreduction: %.0fx (paper: 292x)\n",
		rc, float64(ours.compiled.Stats.CopiedWords), rc/o)
	return sb.String(), nil
}

// Fig10cd reproduces the register-occupancy traces: active registers per
// bank over time, without spilling (R large) and with spilling (R=32).
func (r *Runner) Fig10cd() (string, error) {
	w := r.suite()[3] // msnbc: a wide PC whose live set exceeds R=32
	var sb strings.Builder
	sb.WriteString("Fig 10(c,d) — active registers per bank over time\n")
	for _, variant := range []struct {
		name string
		r    int
	}{{"without spilling (R=256)", 256}, {"with spilling (R=32)", 32}} {
		cfg := arch.Config{D: 3, B: 64, R: variant.r, Output: arch.OutPerLayer}
		c, err := compiler.Compile(w.graph, cfg, compiler.Options{Seed: r.cfg.Seed})
		if err != nil {
			return "", err
		}
		type snap struct{ cyc, min, max, avg int }
		var snaps []snap
		err = regfile.Occupancy(cfg, c.Prog.Instrs, func(cycle int, perBank []int) {
			if cycle%200 != 0 {
				return
			}
			mn, mx, sum := perBank[0], perBank[0], 0
			for _, o := range perBank {
				if o < mn {
					mn = o
				}
				if o > mx {
					mx = o
				}
				sum += o
			}
			snaps = append(snaps, snap{cycle, mn, mx, sum / len(perBank)})
		})
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&sb, "\n%s (spills=%d):\n%8s %6s %6s %6s\n", variant.name, c.Stats.SpillStores, "cycle", "min", "avg", "max")
		step := 1
		if len(snaps) > 12 {
			step = len(snaps) / 12
		}
		peak := 0
		for _, s := range snaps {
			if s.max > peak {
				peak = s.max
			}
		}
		for i := 0; i < len(snaps); i += step {
			s := snaps[i]
			fmt.Fprintf(&sb, "%8d %6d %6d %6d\n", s.cyc, s.min, s.avg, s.max)
		}
		fmt.Fprintf(&sb, "peak per-bank occupancy: %d (cap R=%d); balance max-min stays small per paper obj. J\n", peak, variant.r)
	}
	return sb.String(), nil
}

// dseWorkloads is the (scaled) suite used by the design-space sweep.
func (r *Runner) dseWorkloads() []*dag.Graph {
	// A representative subset keeps the 48-point sweep tractable; the
	// full suite can be swept with cmd/dpu-dse.
	g1 := pc.Build(pc.Suite()[0], r.cfg.Scale)
	g2 := pc.Build(pc.Suite()[2], r.cfg.Scale)
	g3, _ := sptrsv.Build(sptrsv.Suite()[1], r.cfg.Scale)
	g4, _ := sptrsv.Build(sptrsv.Suite()[3], r.cfg.Scale)
	return []*dag.Graph{g1, g2, g3, g4}
}

// dsePoints runs the 48-point sweep once per Runner and shares the
// result between the experiments that consume it (fig. 11 and fig. 12).
func (r *Runner) dsePoints() []dse.Point {
	r.sweepOnce.Do(func() {
		r.sweepPoints = dse.SweepParallel(r.dseWorkloads(), dse.Grid(), compiler.Options{Seed: r.cfg.Seed}, r.cfg.Workers)
	})
	return r.sweepPoints
}

// Fig11 reproduces the design-space exploration: latency, energy and EDP
// per operation across the 48 (D,B,R) points, and the three optima.
func (r *Runner) Fig11() (string, error) {
	points := r.dsePoints()
	var sb strings.Builder
	sb.WriteString("Fig 11 — design space exploration (per-op means over workloads)\n")
	fmt.Fprintf(&sb, "%-22s %10s %10s %12s\n", "config", "lat(ns)", "E(pJ)", "EDP(pJ*ns)")
	for _, p := range points {
		if !p.Feasible {
			fmt.Fprintf(&sb, "%-22s %10s %10s %12s (%v)\n", p.Cfg.String(), "-", "-", "-", "infeasible")
			continue
		}
		fmt.Fprintf(&sb, "%-22s %10.3f %10.2f %12.2f\n", p.Cfg.String(), p.LatencyPerOp, p.EnergyPerOp, p.EDP)
	}
	if p, ok := dse.Best(points, dse.MinLatency); ok {
		fmt.Fprintf(&sb, "min latency: %v (paper: D=3,B=64,R=128)\n", p.Cfg)
	}
	if p, ok := dse.Best(points, dse.MinEnergy); ok {
		fmt.Fprintf(&sb, "min energy:  %v (paper: D=3,B=16,R=64)\n", p.Cfg)
	}
	if p, ok := dse.Best(points, dse.MinEDP); ok {
		fmt.Fprintf(&sb, "min EDP:     %v (paper: D=3,B=64,R=32)\n", p.Cfg)
	}
	return sb.String(), nil
}

// Fig12 reproduces the latency-energy scatter with the iso-EDP curve
// through the min-EDP point.
func (r *Runner) Fig12() (string, error) {
	points := r.dsePoints()
	best, ok := dse.Best(points, dse.MinEDP)
	if !ok {
		return "", fmt.Errorf("bench: no feasible DSE point")
	}
	var sb strings.Builder
	sb.WriteString("Fig 12 — latency vs energy scatter (vs iso-EDP through min-EDP point)\n")
	fmt.Fprintf(&sb, "%-22s %10s %10s %14s\n", "config", "lat(ns)", "E(pJ)", "EDP/minEDP")
	for _, p := range points {
		if !p.Feasible {
			continue
		}
		fmt.Fprintf(&sb, "%-22s %10.3f %10.2f %14.2f\n", p.Cfg.String(), p.LatencyPerOp, p.EnergyPerOp, p.EDP/best.EDP)
	}
	fmt.Fprintf(&sb, "min-EDP point: %v, EDP=%.2f pJ*ns (paper: 6.0 at D=3,B=64,R=32)\n", best.Cfg, best.EDP)
	return sb.String(), nil
}

// Fig13 reproduces the instruction-category breakdown per workload.
func (r *Runner) Fig13() (string, error) {
	var sb strings.Builder
	sb.WriteString("Fig 13 — instruction breakdown (% of instructions)\n")
	fmt.Fprintf(&sb, "%-10s %7s %7s %7s %7s %7s %7s\n", "workload", "exec", "load", "store", "copy", "nop", "total")
	suite := r.suite()
	// Evaluate the suite on the worker pool, then format in suite order.
	evs := make([]*evalResult, len(suite))
	err := r.forEach(len(suite), func(i int) error {
		ev, err := r.eval(suite[i], arch.MinEDP(), compiler.Options{Seed: r.cfg.Seed})
		evs[i] = ev
		return err
	})
	if err != nil {
		return "", err
	}
	for i, w := range suite {
		counts := evs[i].compiled.Prog.Counts()
		total := float64(len(evs[i].compiled.Prog.Instrs))
		pct := func(k arch.Kind) float64 { return 100 * float64(counts[k]) / total }
		fmt.Fprintf(&sb, "%-10s %6.1f%% %6.1f%% %6.1f%% %6.1f%% %6.1f%% %7d\n",
			w.name, pct(arch.KindExec), pct(arch.KindLoad),
			pct(arch.KindStore)+pct(arch.KindStore4), pct(arch.KindCopy), pct(arch.KindNop), int(total))
	}
	return sb.String(), nil
}

// Fig14a reproduces the per-workload throughput comparison on the small
// suites: DPU-v2 (simulated) vs DPU/CPU/GPU (modeled).
func (r *Runner) Fig14a() (string, error) {
	var sb strings.Builder
	sb.WriteString("Fig 14(a) — throughput per workload (GOPS)\n")
	fmt.Fprintf(&sb, "%-10s %8s %8s %8s %8s\n", "workload", "DPU-v2", "DPU", "CPU", "GPU")
	var v2s, v1s, cpus, gpus []float64
	for _, w := range r.suite() {
		ev, err := r.eval(w, arch.MinEDP(), compiler.Options{Seed: r.cfg.Seed})
		if err != nil {
			return "", err
		}
		v2 := ev.est.ThroughputGOP
		v1 := baseline.Throughput(baseline.DPU1, w.full)
		cg := baseline.Throughput(baseline.CPU, w.full)
		gg := baseline.Throughput(baseline.GPU, w.full)
		v2s, v1s, cpus, gpus = append(v2s, v2), append(v1s, v1), append(cpus, cg), append(gpus, gg)
		fmt.Fprintf(&sb, "%-10s %8.2f %8.2f %8.2f %8.2f\n", w.name, v2, v1, cg, gg)
	}
	fmt.Fprintf(&sb, "%-10s %8.2f %8.2f %8.2f %8.2f   (paper avg: 4.2 / 3.1 / 1.2 / 0.4)\n",
		"mean", mean(v2s), mean(v1s), mean(cpus), mean(gpus))
	return sb.String(), nil
}

// Fig14b reproduces the large-PC throughput comparison: DPU-v2 (L) with 4
// batch cores vs SPU/CPU_SPU/CPU/GPU.
func (r *Runner) Fig14b() (string, error) {
	const batchCores = 4
	var sb strings.Builder
	sb.WriteString("Fig 14(b) — large-PC throughput (GOPS)\n")
	fmt.Fprintf(&sb, "%-10s %10s %8s %8s %8s %8s\n", "workload", "DPU-v2(L)", "SPU", "CPU_SPU", "CPU", "GPU")
	for _, w := range r.largeSuite() {
		ev, err := r.eval(w, arch.Large(), compiler.Options{Seed: r.cfg.Seed, PartitionSize: 20000})
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&sb, "%-10s %10.2f %8.2f %8.2f %8.2f %8.2f\n",
			w.name, batchCores*ev.est.ThroughputGOP,
			baseline.Throughput(baseline.SPU, w.full),
			baseline.Throughput(baseline.CPUSPU, w.full),
			baseline.Throughput(baseline.CPU, w.full),
			baseline.Throughput(baseline.GPU, w.full))
	}
	sb.WriteString("(paper avg: 34.6 / 22.2 / 1.7 / 1.8 / 4.6 — workloads here are scaled stand-ins)\n")
	return sb.String(), nil
}

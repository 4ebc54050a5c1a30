package figures

import (
	"fmt"

	"dpuv2/internal/arch"
	"dpuv2/internal/baseline"
	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
	"dpuv2/internal/energy"
)

// Table1 reproduces the workload-statistics table: nodes, longest path,
// average parallelism n/l, and compile time for the min-EDP design. Large
// PCs are compiled with 20k-node coarse partitions, as in the paper.
func (r *Runner) Table1() (*Table, error) {
	t := &Table{Title: fmt.Sprintf("Table I — workload statistics (scale=%.2f, large=%.2f)", r.cfg.Scale, r.cfg.LargeScale)}
	ws := r.suite()
	for _, part := range []struct {
		kind string
		ws   []workload
		opts compiler.Options
	}{
		{"PC", ws[:6], compiler.Options{}},
		{"SpTRSV", ws[6:], compiler.Options{}},
		{"LargePC", r.largeSuite(), compiler.Options{PartitionSize: 20000}},
	} {
		p := &Table{Title: part.kind, Key: "workload",
			Cols: append(cols("%.0f", "nodes(n)", "l", "n/l"), Col{"compile(s)", "%.3f"})}
		for _, w := range part.ws {
			st := dag.ComputeStats(w.graph)
			ev, err := r.eval(w, arch.MinEDP(), part.opts)
			if err != nil {
				return nil, err
			}
			p.add(w.name, float64(st.Nodes), float64(st.LongestPath), st.AvgParallel, ev.compiled.Stats.CompileSeconds)
		}
		t.Parts = append(t.Parts, p)
	}
	return t, nil
}

// Table2 reproduces the area/power breakdown of the min-EDP design.
func (r *Runner) Table2() (*Table, error) {
	b := energy.Model(arch.MinEDP())
	t := &Table{
		Title: "Table II — area and power breakdown (" + b.Cfg.String() + ")",
		Key:   "component",
		Cols:  []Col{{"mm^2", "%.2f"}, {"area%", "%.0f"}, {"mW", "%.1f"}, {"power%", "%.0f"}},
	}
	ta, tp := b.TotalArea(), b.TotalPower()
	for c := energy.Component(0); int(c) < energy.Components(); c++ {
		t.add(c.Name(), b.AreaMM2[c], 100*b.AreaMM2[c]/ta, b.PowerMW[c], 100*b.PowerMW[c]/tp)
	}
	t.add("total", ta, none, tp, none)
	return t, nil
}

// Table3 reproduces the cross-platform comparison: throughput, speedup
// over CPU, power and EDP, for the small suites on the min-EDP design and
// the large-PC suite on DPU-v2 (L) with 4 batch cores. The throughputs
// are fig. 14's means.
func (r *Runner) Table3() (*Table, error) {
	f14a, err := r.Fig14a()
	if err != nil {
		return nil, err
	}
	f14b, err := r.Fig14b()
	if err != nil {
		return nil, err
	}
	var powers, lats, energies, lpow []float64
	for _, w := range r.suite() {
		ev, err := r.eval(w, arch.MinEDP(), compiler.Options{})
		if err != nil {
			return nil, err
		}
		powers, lats, energies = append(powers, ev.est.PowerMW), append(lats, ev.est.LatencyPerOp), append(energies, ev.est.EnergyPerOp)
	}
	for _, w := range r.largeSuite() {
		ev, err := r.eval(w, arch.Large(), compiler.Options{PartitionSize: 20000})
		if err != nil {
			return nil, err
		}
		lpow = append(lpow, batchCores*ev.est.PowerMW)
	}
	small := compare("PC + SpTRSV suites (min-EDP config "+arch.MinEDP().String()+"):",
		f14a, "CPU", mean(powers)/1e3, smallPlatforms, false)
	// EDP: DPU-v2's is its modeled energy times latency per op; a
	// modeled platform's follows from its power and throughput.
	small.Cols = append(small.Cols, Col{"EDP(pJ*ns)", "%.1f"})
	for i := range small.Rows {
		row := &small.Rows[i]
		edp := mean(energies) * mean(lats)
		if i > 0 {
			latNS := 1 / row.Vals[0]
			edp = row.Vals[2] * 1e3 * latNS * latNS
		}
		row.Vals = append(row.Vals, edp)
	}
	large := compare(fmt.Sprintf("Large PCs (DPU-v2 (L) = %v, %d batch cores):", arch.Large(), batchCores),
		f14b, "CPU_SPU", mean(lpow)/1e3, largePlatforms, true)
	return &Table{Title: "Table III — performance comparison", Parts: []*Table{small, large}}, nil
}

// compare tabulates each column of a fig. 14 table, DPU-v2 then
// platforms in order: its mean throughput, the speedup over column ref,
// and its power in watts (DPU-v2's is dpuW).
func compare(title string, f14 *Table, ref string, dpuW float64, platforms []baseline.Platform, large bool) *Table {
	t := &Table{Title: title, Key: "platform", Cols: []Col{{"throughput(GOPS)", "%.2f"}, {"speedup", "%.2fx"}, {"power(W)", "%.3f"}}}
	for i, c := range f14.Cols {
		g, pw := f14.Get("mean", c.Name), dpuW
		if i > 0 {
			pw = baseline.PowerW(platforms[i-1], large)
		}
		t.add(c.Name, g, g/f14.Get("mean", ref), pw)
	}
	return t
}

// savings tabulates a per-workload size comparison, ours against a
// reference encoding, with the mean saving beside the paper's.
func (r *Runner) savings(title, oursCol, refCol string, paper float64, size func(*evalResult) (ours, ref int)) (*Table, error) {
	t := &Table{
		Title: title,
		Key:   "workload",
		Cols:  []Col{{oursCol, "%.0f"}, {refCol, "%.0f"}, {"saving", "%.1f%%"}},
	}
	var savings []float64
	for _, w := range r.suite() {
		ev, err := r.eval(w, arch.MinEDP(), compiler.Options{})
		if err != nil {
			return nil, err
		}
		ours, ref := size(ev)
		s := 100 * (1 - float64(ours)/float64(ref))
		savings = append(savings, s)
		t.add(w.name, float64(ours), float64(ref), s)
	}
	t.Rows = append(t.Rows, Row{"mean", []float64{none, none, mean(savings)}, []float64{none, none, paper}})
	return t, nil
}

// ProgSize reproduces the §III-B claim: the automatic write-address
// policy shrinks programs by ≈30% versus explicit write addresses.
func (r *Runner) ProgSize() (*Table, error) {
	return r.savings("Program-size reduction from automatic write addressing (§III-B)",
		"auto(bits)", "fixed(bits)", 30, func(ev *evalResult) (int, int) {
			return ev.compiled.Prog.BitSize(), ev.compiled.Prog.FixedWriteAddrBits()
		})
}

// Footprint reproduces the §IV-E claim: total instruction+data footprint
// is ≈48% smaller than a CSR-style representation of the DAG.
func (r *Runner) Footprint() (*Table, error) {
	return r.savings("Memory footprint: DPU-v2 program vs CSR-style DAG encoding (§IV-E)",
		"prog+data(B)", "CSR(B)", 48, func(ev *evalResult) (int, int) {
			return ev.compiled.Prog.FootprintBytes(), csrFootprint(ev.compiled.Graph)
		})
}

// csrFootprint sizes the conventional representation the paper compares
// against: a CSR-like adjacency (row pointers + 32-bit edge indices), a
// per-node opcode byte, and 32-bit value storage per node.
func csrFootprint(g *dag.Graph) int {
	return 4*(g.NumNodes()+1) + 4*g.NumEdges() + g.NumNodes() + 4*g.NumNodes()
}

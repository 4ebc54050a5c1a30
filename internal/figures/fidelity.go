package figures

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"dpuv2/internal/arch"
	"dpuv2/internal/compiler"
	"dpuv2/internal/sim"
)

// claim is one result of the paper this harness reproduces, read off
// typed tables: check reports whether it holds, the number it rests on
// here and the paper's (none where the paper gives none), and what it
// compared.
type claim struct {
	name  string
	check func(tab map[string]*Table) claimReading
}

type claimReading struct {
	holds       bool
	ours, paper float64
	detail      string
}

// claimExperiments are the experiments paperClaims read.
var claimExperiments = []string{"fig1c", "fig3c", "fig6e", "fig10b", "fig11", "fig14a", "table3", "progsize", "footprint"}

// paperClaims is the paper's claims, in the ledger's order.
var paperClaims = []claim{
	{"fig6e: conflicts (a) <= (b) < (c)", func(tab map[string]*Table) claimReading {
		f := tab["fig6e"]
		a := f.Get("(a) crossbar/crossbar", "conflicts")
		b := f.Get("(b) crossbar/one-PE-per-layer", "conflicts")
		c := f.Get("(c) crossbar/one-PE", "conflicts")
		pb, pc := paperValue(f, "(b) crossbar/one-PE-per-layer", "normalized"), paperValue(f, "(c) crossbar/one-PE", "normalized")
		return claimReading{a <= b && b < c, c / b, pc / pb, fmt.Sprintf("a=%v b=%v c=%v", a, b, c)}
	}},
	{"fig3c: tree >= systolic at every input count", func(tab map[string]*Table) claimReading {
		f := tab["fig3c"]
		worst := math.Inf(1)
		for _, row := range f.Rows {
			sys, tree := f.Get(row.Label, "systolic"), f.Get(row.Label, "tree")
			if !(tree >= sys) {
				return claimReading{false, tree / sys, none, fmt.Sprintf("%s inputs: tree %.4g%%, systolic %.4g%%", row.Label, tree, sys)}
			}
			worst = min(worst, tree/sys)
		}
		return claimReading{len(f.Rows) > 0, worst, none, fmt.Sprintf("%d input counts, tree/systolic at least %.4g", len(f.Rows), worst)}
	}},
	{"fig1c: GPU < CPU below 100k nodes", func(tab map[string]*Table) claimReading {
		f := tab["fig1c"]
		below, worst := 0, 0.0
		for _, row := range f.Rows {
			if n, _ := strconv.Atoi(row.Label); n >= 100_000 {
				continue
			}
			below++
			gpu, cpu := f.Get(row.Label, "GPU"), f.Get(row.Label, "CPU")
			if !(gpu < cpu) {
				return claimReading{false, gpu / cpu, none, fmt.Sprintf("%s nodes: GPU %.4g, CPU %.4g", row.Label, gpu, cpu)}
			}
			worst = max(worst, gpu/cpu)
		}
		return claimReading{below > 0, worst, none, fmt.Sprintf("%d sizes below 100k, GPU/CPU at most %.4g", below, worst)}
	}},
	{"fig14a: DPU-v2 mean > CPU mean > GPU mean", func(tab map[string]*Table) claimReading {
		f := tab["fig14a"]
		v2, cpu, gpu := f.Get("mean", "DPU-v2"), f.Get("mean", "CPU"), f.Get("mean", "GPU")
		return claimReading{v2 > cpu && cpu > gpu, v2, paperValue(f, "mean", "DPU-v2"), fmt.Sprintf("DPU-v2 %.4g, CPU %.4g, GPU %.4g GOPS", v2, cpu, gpu)}
	}},
	{"fig14a: DPU-v2 mean > DPU mean", func(tab map[string]*Table) claimReading {
		f := tab["fig14a"]
		v2, v1 := f.Get("mean", "DPU-v2"), f.Get("mean", "DPU")
		return claimReading{v2 > v1, v2 / v1, paperValue(f, "mean", "DPU-v2") / paperValue(f, "mean", "DPU"), fmt.Sprintf("DPU-v2 %.4g, DPU %.4g GOPS", v2, v1)}
	}},
	{"table3: DPU-v2 EDP < CPU EDP", func(tab map[string]*Table) claimReading {
		f := tab["table3"].Parts[0]
		v2, cpu := f.Get("DPU-v2", "EDP(pJ*ns)"), f.Get("CPU", "EDP(pJ*ns)")
		return claimReading{v2 < cpu, v2, none, fmt.Sprintf("DPU-v2 %.4g, CPU %.4g pJ*ns", v2, cpu)}
	}},
	{"table3: DPU-v2 EDP < DPU EDP", func(tab map[string]*Table) claimReading {
		f := tab["table3"].Parts[0]
		v2, v1 := f.Get("DPU-v2", "EDP(pJ*ns)"), f.Get("DPU", "EDP(pJ*ns)")
		return claimReading{v2 < v1, v2 / v1, none, fmt.Sprintf("DPU-v2 %.4g, DPU %.4g pJ*ns", v2, v1)}
	}},
	{"fig10b: random allocation conflicts more", func(tab map[string]*Table) claimReading {
		f := tab["fig10b"]
		random, ours := f.Get("tretail", "random"), f.Get("tretail", "ours")
		return claimReading{random > ours, f.Get("tretail", "reduction"), paperValue(f, "tretail", "reduction"), fmt.Sprintf("random %v, ours %v", random, ours)}
	}},
	{"progsize: automatic write addressing saves bits (§III-B)", func(tab map[string]*Table) claimReading {
		f := tab["progsize"]
		s := f.Get("mean", "saving")
		return claimReading{s > 0, s, paperValue(f, "mean", "saving"), fmt.Sprintf("mean saving %.4g%%", s)}
	}},
	{"footprint: smaller than CSR (§IV-E)", func(tab map[string]*Table) claimReading {
		f := tab["footprint"]
		s := f.Get("mean", "saving")
		return claimReading{s > 0, s, paperValue(f, "mean", "saving"), fmt.Sprintf("mean saving %.4g%%", s)}
	}},
	optimumClaim("min latency"),
	optimumClaim("min energy"),
	optimumClaim("min EDP"),
}

// optimumClaim: fig. 11's optimum is the paper's design point. Its
// number is the optimum's EDP.
func optimumClaim(name string) claim {
	return claim{"fig11: " + name + " is the paper's point", func(tab map[string]*Table) claimReading {
		f := tab["fig11"].Parts[0]
		var got, paper []float64
		for _, c := range []string{"D", "B", "R"} {
			got = append(got, f.Get(name, c))
			paper = append(paper, paperValue(f, name, c))
		}
		return claimReading{fmt.Sprint(got) == fmt.Sprint(paper), f.Get(name, "EDP(pJ*ns)"), paperValue(f, name, "EDP(pJ*ns)"),
			fmt.Sprintf("D,B,R %v, paper %v", got, paper)}
	}}
}

// paperValue returns the paper's reference value for the cell t.Get
// reads, or NaN when the paper gives none.
func paperValue(t *Table, label, col string) float64 {
	ref := &Table{Cols: t.Cols}
	for _, r := range t.Rows {
		ref.Rows = append(ref.Rows, Row{Label: r.Label, Vals: r.Paper})
	}
	return ref.Get(label, col)
}

// readClaims runs the experiments the claims read and reads every claim.
func (r *Runner) readClaims() ([]claimReading, error) {
	tab := map[string]*Table{}
	for _, name := range claimExperiments {
		var err error
		if tab[name], err = r.Run(name); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
	}
	out := make([]claimReading, len(paperClaims))
	for i, c := range paperClaims {
		out[i] = c.check(tab)
	}
	return out, nil
}

// ledgerNum is a ledger value: six significant digits, so the file does
// not move with the last bits of a float, and null for NaN (no value).
type ledgerNum float64

func (x ledgerNum) MarshalJSON() ([]byte, error) {
	f := float64(x)
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return []byte("null"), nil
	}
	return strconv.AppendFloat(nil, f, 'g', 6, 64), nil
}

// claimRow is one paper claim in the fidelity ledger: the number it
// rests on here and in the paper (null where the paper gives none),
// their ratio, and whether the claim holds.
type claimRow struct {
	Name   string    `json:"name"`
	Paper  ledgerNum `json:"paper"`
	Ours   ledgerNum `json:"ours"`
	Ratio  ledgerNum `json:"ratio"`
	Holds  bool      `json:"holds"`
	Detail string    `json:"detail"`
}

// graphRow is one Table I graph at the min-EDP point in the fidelity
// ledger: its cycles, sim.LowerBound's three terms, and the instructions
// above the bound by kind.
type graphRow struct {
	Name        string `json:"name"`
	Cycles      int    `json:"cycles"`
	BoundOps    int    `json:"bound_ops"`
	BoundLeaves int    `json:"bound_leaves"`
	BoundLat    int    `json:"bound_latency"`
	Execs       int    `json:"execs"`
	Loads       int    `json:"loads"`
	Copies      int    `json:"copies"`
	Nops        int    `json:"nops"`
	SpillStores int    `json:"spill_stores"`
	Reloads     int    `json:"reloads"`
}

// Fidelity is the paper-axis ledger (FIDELITY.json): every paper claim
// and the Table I graphs' cycle decomposition at one scale. It holds
// counts and model outputs only, no timings, so it is the same on every
// run.
type Fidelity struct {
	Scale      float64
	LargeScale float64
	Claims     []claimRow
	Graphs     []graphRow
}

// Fidelity reads every paper claim and decomposes each Table I graph's
// min-EDP cycles.
func (r *Runner) Fidelity() (*Fidelity, error) {
	readings, err := r.readClaims()
	if err != nil {
		return nil, err
	}
	f := &Fidelity{Scale: r.cfg.Scale, LargeScale: r.cfg.LargeScale}
	for i, c := range readings {
		f.Claims = append(f.Claims, claimRow{paperClaims[i].name, ledgerNum(c.paper), ledgerNum(c.ours),
			ledgerNum(c.ours / c.paper), c.holds, c.detail})
	}
	for _, w := range r.suite() {
		ev, err := r.eval(w, arch.MinEDP(), compiler.Options{})
		if err != nil {
			return nil, err
		}
		c := ev.compiled
		b := sim.LowerBound(c.Graph, c.Prog.Cfg)
		s := c.Stats
		f.Graphs = append(f.Graphs, graphRow{w.name, s.Cycles, b.Ops, b.Leaves, b.Latency,
			s.Execs, s.Loads, s.Copies, s.Nops, s.SpillStores, s.Reloads})
	}
	return f, nil
}

// MarshalLedger encodes f as FIDELITY.json: one claim or graph per line,
// so a change to the compiler shows as a line diff.
func (f *Fidelity) MarshalLedger() ([]byte, error) {
	var b bytes.Buffer
	fmt.Fprintf(&b, "{\n  \"scale\": %v,\n  \"large_scale\": %v,\n", f.Scale, f.LargeScale)
	if err := ledgerRows(&b, "claims", f.Claims, ","); err != nil {
		return nil, err
	}
	if err := ledgerRows(&b, "graphs", f.Graphs, ""); err != nil {
		return nil, err
	}
	b.WriteString("}\n")
	return b.Bytes(), nil
}

// ledgerRows writes one JSON array of the ledger, a row per line.
func ledgerRows[T any](b *bytes.Buffer, name string, rows []T, sep string) error {
	fmt.Fprintf(b, "  %q: [\n", name)
	var line bytes.Buffer
	enc := json.NewEncoder(&line)
	enc.SetEscapeHTML(false)
	for i, row := range rows {
		line.Reset()
		if err := enc.Encode(row); err != nil {
			return err
		}
		b.WriteString("    ")
		b.Write(bytes.TrimSuffix(line.Bytes(), []byte("\n")))
		if i < len(rows)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(b, "  ]%s\n", sep)
	return nil
}

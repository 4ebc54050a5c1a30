// Package figures is the experiment harness: one generator per table and
// figure of the paper's evaluation (§V), shared by cmd/dpu-figures and
// the repository's top-level Go benchmarks. Each generator returns a
// typed *Table, with the paper's reference values stored beside the
// measured ones, and Render is the one printer. DESIGN.md
// ("Substitutions") says what the regenerated numbers can be compared
// on, and ROADMAP.md records them against the paper's.
package figures

import (
	"fmt"
	"strings"

	"dpuv2/internal/arch"
	"dpuv2/internal/baseline"
	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
	"dpuv2/internal/dse"
	"dpuv2/internal/energy"
	"dpuv2/internal/pc"
	"dpuv2/internal/sim"
	"dpuv2/internal/sptrsv"
)

// Config scales the harness. Scale multiplies the Table I node counts of
// the PC and SpTRSV suites; LargeScale does the same for the large-PC
// suite (full scale means 3.3M-node circuits — correct but slow).
// Workers bounds the parallelism of the design-space sweep (fig. 11/12);
// <= 0 means one worker per CPU.
type Config struct {
	Scale      float64
	LargeScale float64
	Workers    int
}

// Runner builds each suite once and caches the compiled and modeled
// workloads across experiments. It runs one experiment at a time.
type Runner struct {
	cfg          Config
	small, large []workload
	cache        map[string]*evalResult
	// The 48-point sweep is shared by fig. 11 and fig. 12.
	sweep []dse.Point
}

// NewRunner creates a harness with the given scaling.
func NewRunner(cfg Config) *Runner {
	return &Runner{cfg: cfg, cache: map[string]*evalResult{}}
}

type workload struct {
	name  string
	graph *dag.Graph
	// full is the full-scale (Table I) workload shape; the analytic
	// baseline models consume it so that scaled-down DPU-v2 stand-ins
	// are still compared against paper-sized CPU/GPU/DPU runs.
	full baseline.Workload
}

// suite is the PC (a) and SpTRSV (b) workloads at the small scale: the
// 12 Table I graphs every small-suite experiment, the design-space sweep
// included, runs on.
func (r *Runner) suite() []workload {
	if r.small == nil {
		for _, s := range pc.Suite() {
			r.small = append(r.small, workload{s.Name, pc.Build(s, r.cfg.Scale), baseline.Workload{Nodes: s.TargetNodes, LongestPath: s.TargetDepth}})
		}
		for _, s := range sptrsv.Suite() {
			g, _ := sptrsv.Build(s, r.cfg.Scale)
			r.small = append(r.small, workload{s.Name, g, baseline.Workload{Nodes: s.TargetNodes, LongestPath: s.TargetDepth}})
		}
	}
	return r.small
}

func (r *Runner) largeSuite() []workload {
	if r.large == nil {
		for _, s := range pc.LargeSuite() {
			r.large = append(r.large, workload{s.Name, pc.Build(s, r.cfg.LargeScale), baseline.Workload{Nodes: s.TargetNodes, LongestPath: s.TargetDepth}})
		}
	}
	return r.large
}

type evalResult struct {
	compiled *compiler.Compiled
	est      energy.Estimate
}

// eval compiles and models one workload on one configuration, cached.
func (r *Runner) eval(w workload, cfg arch.Config, opts compiler.Options) (*evalResult, error) {
	key := fmt.Sprintf("%s|%v|%+v", w.name, cfg, opts)
	if ev, ok := r.cache[key]; ok {
		return ev, nil
	}
	c, err := compiler.Compile(w.graph, cfg, opts)
	if err != nil {
		return nil, fmt.Errorf("%s on %v: %w", w.name, cfg, err)
	}
	ev := &evalResult{c, energy.EstimateRun(cfg, c.Stats.Nodes, sim.StaticStats(c.Prog), c.Prog)}
	r.cache[key] = ev
	return ev, nil
}

// experiments is every generator in paper order, by the name Run takes.
var experiments = []struct {
	name string
	run  func(*Runner) (*Table, error)
}{
	{"table1", (*Runner).Table1},
	{"table2", (*Runner).Table2},
	{"table3", (*Runner).Table3},
	{"fig1c", (*Runner).Fig1c},
	{"fig3c", (*Runner).Fig3c},
	{"fig6e", (*Runner).Fig6e},
	{"fig10b", (*Runner).Fig10b},
	{"fig10cd", (*Runner).Fig10cd},
	{"fig11", (*Runner).Fig11},
	{"fig12", (*Runner).Fig12},
	{"fig13", (*Runner).Fig13},
	{"fig14a", (*Runner).Fig14a},
	{"fig14b", (*Runner).Fig14b},
	{"progsize", (*Runner).ProgSize},
	{"footprint", (*Runner).Footprint},
}

// Experiments lists the available experiment names in paper order.
func Experiments() []string {
	names := make([]string, len(experiments))
	for i, x := range experiments {
		names[i] = x.name
	}
	return names
}

// Run dispatches an experiment by name (case-insensitive).
func (r *Runner) Run(name string) (*Table, error) {
	for _, x := range experiments {
		if strings.EqualFold(x.name, name) {
			return x.run(r)
		}
	}
	return nil, fmt.Errorf("figures: unknown experiment %q (have %s)", name, strings.Join(Experiments(), ", "))
}

// mean of values.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

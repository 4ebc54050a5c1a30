// Package bench is the experiment harness: one generator per table and
// figure of the paper's evaluation (§V), shared by cmd/dpu-bench and the
// repository's top-level Go benchmarks. Each generator returns the rows
// as formatted text; DESIGN.md ("Substitutions") says what the
// regenerated numbers can be compared on, and ROADMAP.md records them
// against the paper's.
package bench

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"

	"dpuv2/internal/arch"
	"dpuv2/internal/baseline"
	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
	"dpuv2/internal/dse"
	"dpuv2/internal/energy"
	"dpuv2/internal/par"
	"dpuv2/internal/pc"
	"dpuv2/internal/sim"
	"dpuv2/internal/sptrsv"
)

// Config scales the harness. Scale multiplies the Table I node counts of
// the PC and SpTRSV suites; LargeScale does the same for the large-PC
// suite (full scale means 3.3M-node circuits — correct but slow).
// Workers bounds the evaluation parallelism of the sweep-heavy
// experiments (fig. 11/12/13); <= 0 means one worker per CPU.
type Config struct {
	Scale      float64
	LargeScale float64
	Seed       int64
	Workers    int
}

// DefaultConfig keeps every experiment under a few seconds.
func DefaultConfig() Config { return Config{Scale: 0.15, LargeScale: 0.01} }

// Runner caches compiled/simulated workloads across experiments. The
// cache is guarded so experiment generators may evaluate workloads from
// a worker pool; each key is computed exactly once even when workers
// request it concurrently.
type Runner struct {
	cfg   Config
	mu    sync.Mutex
	cache map[string]*evalEntry

	// The full 48-point DSE sweep is shared by fig. 11 and fig. 12;
	// computing it once saves the second-most expensive experiment.
	sweepOnce   sync.Once
	sweepPoints []dse.Point
}

// NewRunner creates a harness with the given scaling.
func NewRunner(cfg Config) *Runner {
	if cfg.Scale <= 0 {
		cfg.Scale = DefaultConfig().Scale
	}
	if cfg.LargeScale <= 0 {
		cfg.LargeScale = DefaultConfig().LargeScale
	}
	return &Runner{cfg: cfg, cache: map[string]*evalEntry{}}
}

type workload struct {
	name  string
	graph *dag.Graph
	kind  string // "PC", "SpTRSV", "LargePC"
	csr   *sptrsv.CSR
	// full is the full-scale (Table I) workload shape; the analytic
	// baseline models consume it so that scaled-down DPU-v2 stand-ins
	// are still compared against paper-sized CPU/GPU/DPU runs.
	full baseline.Workload
}

// suite builds the PC (a) and SpTRSV (b) workloads at the small scale.
func (r *Runner) suite() []workload {
	var ws []workload
	for _, s := range pc.Suite() {
		full := baseline.Workload{Nodes: s.TargetNodes, LongestPath: s.TargetDepth}
		ws = append(ws, workload{s.Name, pc.Build(s, r.cfg.Scale), "PC", nil, full})
	}
	for _, s := range sptrsv.Suite() {
		g, m := sptrsv.Build(s, r.cfg.Scale)
		full := baseline.Workload{Nodes: s.TargetNodes, LongestPath: s.TargetDepth}
		ws = append(ws, workload{s.Name, g, "SpTRSV", m, full})
	}
	return ws
}

func (r *Runner) largeSuite() []workload {
	var ws []workload
	for _, s := range pc.LargeSuite() {
		full := baseline.Workload{Nodes: s.TargetNodes, LongestPath: s.TargetDepth}
		ws = append(ws, workload{s.Name, pc.Build(s, r.cfg.LargeScale), "LargePC", nil, full})
	}
	return ws
}

type evalResult struct {
	compiled *compiler.Compiled
	est      energy.Estimate
}

// evalEntry is one cache slot; once makes concurrent requests for the
// same key compute it a single time (errors are cached too — every
// evaluation is deterministic, so retrying cannot help).
type evalEntry struct {
	once sync.Once
	res  *evalResult
	err  error
}

// eval compiles and models one workload on one configuration, cached.
func (r *Runner) eval(w workload, cfg arch.Config, opts compiler.Options) (*evalResult, error) {
	key := fmt.Sprintf("%s|%v|%d|%v|%d", w.name, cfg, opts.Seed, opts.RandomBanks, opts.PartitionSize)
	r.mu.Lock()
	e, ok := r.cache[key]
	if !ok {
		e = &evalEntry{}
		r.cache[key] = e
	}
	r.mu.Unlock()
	e.once.Do(func() {
		e.res, e.err = r.evalUncached(w, cfg, opts)
	})
	return e.res, e.err
}

func (r *Runner) evalUncached(w workload, cfg arch.Config, opts compiler.Options) (*evalResult, error) {
	c, err := compiler.Compile(w.graph, cfg, opts)
	if err != nil {
		return nil, fmt.Errorf("%s on %v: %w", w.name, cfg, err)
	}
	return &evalResult{
		compiled: c,
		est:      energy.EstimateRun(cfg, c.Stats.Nodes, sim.StaticStats(c.Prog), c.Prog),
	}, nil
}

// forEach runs fn(0..n-1) on a pool of r.cfg.Workers workers (<= 0: one
// per CPU) and joins the per-index errors. Output written by fn at its
// own index stays deterministically ordered.
func (r *Runner) forEach(n int, fn func(i int) error) error {
	errs := make([]error, n)
	par.ForEach(n, r.cfg.Workers, func(i int) {
		errs[i] = fn(i)
	})
	return errors.Join(errs...)
}

// experiments is every generator in paper order, by the name Run takes.
var experiments = []struct {
	name string
	run  func(*Runner) (string, error)
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
func (r *Runner) Run(name string) (string, error) {
	for _, x := range experiments {
		if strings.EqualFold(x.name, name) {
			return x.run(r)
		}
	}
	return "", fmt.Errorf("bench: unknown experiment %q (have %s)", name, strings.Join(Experiments(), ", "))
}

// geoMean of positive values.
func geoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
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

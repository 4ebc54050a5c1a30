package compiler

import (
	"fmt"
	"math"
	"slices"

	"dpuv2/internal/arch"
	"dpuv2/internal/dag"
)

// RaceEnabled is raceEnabled, for the external tests.
const RaceEnabled = raceEnabled

// The step-1 cut policies, for the external tests.
const (
	CutGreedy = cutGreedy
	CutBand   = cutBand
)

// compile is Compile over the search space s.
func compile(g *dag.Graph, cfg arch.Config, opts Options, s search) (*Compiled, error) {
	p, err := plan(g, cfg, opts, s)
	if err != nil {
		return nil, err
	}
	return p.Emit(cfg.R)
}

// CompileCut is Compile with step 1 making one cut instead of choosing
// between the two.
func CompileCut(g *dag.Graph, cfg arch.Config, opts Options, cut cutPolicy) (*Compiled, error) {
	s := fullSearch()
	s.cuts = []cutPolicy{cut}
	return compile(g, cfg, opts, s)
}

// CompileWindow is Compile with step 3 reordering under window alone
// instead of choosing between reorderWindow and shortWindow (the window
// ablation).
func CompileWindow(g *dag.Graph, cfg arch.Config, opts Options, window int) (*Compiled, error) {
	s := fullSearch()
	s.windows = []int{window}
	return compile(g, cfg, opts, s)
}

// CompileFirstFit is Compile with step 2c laying leaves out by first-fit
// alone instead of choosing between the two layouts.
func CompileFirstFit(g *dag.Graph, cfg arch.Config, opts Options) (*Compiled, error) {
	s := fullSearch()
	s.layouts = []leafLayout{layoutFirstFit}
	return compile(g, cfg, opts, s)
}

// CheckSpillFreeDrafts runs step 4 for r registers per bank on every
// draft of p and, on each draft that neither spills nor fails, checks
// that step 4 emitted step 3's schedule nop for nop: the same kind at
// every slot, a nop where step 3 left a nil slot. It returns how many
// drafts it checked.
func (p *Planned) CheckSpillFreeDrafts(r int) (int, error) {
	cfg := p.cfg
	cfg.R = r
	checked := 0
	for k, d := range p.drafts {
		var ra regalloc
		var out arch.Builder
		ra.reset(cfg, slices.Clone(d.vals), d.rows, d.sched, d.stats, &out)
		if err := ra.run(d.sched, math.MaxInt); err != nil || ra.stats.SpillStores > 0 || ra.stats.Reloads > 0 {
			continue
		}
		prog, err := out.Program(cfg)
		if err != nil {
			return checked, fmt.Errorf("draft %d: %w", k, err)
		}
		if len(prog.Instrs) != len(d.sched) {
			return checked, fmt.Errorf("draft %d: step 4 emits %d instructions (%d nops), step 3 scheduled %d slots", k, len(prog.Instrs), ra.stats.Nops, len(d.sched))
		}
		for i, op := range d.sched {
			want := arch.KindNop
			if op != nil {
				want = op.kind
			}
			if got := prog.Instrs[i].Kind; got != want {
				return checked, fmt.Errorf("draft %d: step 4 emits a %v at slot %d, step 3 scheduled a %v", k, got, i, want)
			}
		}
		checked++
	}
	return checked, nil
}

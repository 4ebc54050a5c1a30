package compiler

import (
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

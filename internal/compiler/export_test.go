package compiler

import (
	"dpuv2/internal/arch"
	"dpuv2/internal/dag"
)

// The step-1 cut policies, for the external tests.
const (
	CutGreedy = cutGreedy
	CutBand   = cutBand
)

// CompileCut is Compile with step 1 forced to one cut policy instead of
// choosing between the two.
func CompileCut(g *dag.Graph, cfg arch.Config, opts Options, cut cutPolicy) (*Compiled, error) {
	defer setCut(cut)()
	return Compile(g, cfg, opts)
}

// setCut forces decompose's cut policy and returns the function that
// restores the previous one.
func setCut(p cutPolicy) (restore func()) {
	prev := forcedCut
	forcedCut = p
	return func() { forcedCut = prev }
}

// CompileWindow is Compile with step 3's reorder window set to window
// instead of reorderWindow (the window ablation).
func CompileWindow(g *dag.Graph, cfg arch.Config, opts Options, window int) (*Compiled, error) {
	prev := forcedWindow
	forcedWindow = window
	defer func() { forcedWindow = prev }()
	return Compile(g, cfg, opts)
}

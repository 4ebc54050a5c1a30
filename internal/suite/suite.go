// Package suite resolves Table I workload names to generated graphs —
// the one lookup shared by the dpu-compile and dpu-sim CLIs, so both
// binaries accept exactly the same workload names (small and large PC
// suites plus the SpTRSV suite) and a new benchmark is added in one
// place.
package suite

import (
	"fmt"
	"strings"

	"dpuv2/internal/dag"
	"dpuv2/internal/pc"
	"dpuv2/internal/sptrsv"
)

// Build generates the named Table I workload at the given scale.
func Build(name string, scale float64) (*dag.Graph, error) {
	for _, s := range pc.Suite() {
		if s.Name == name {
			return pc.Build(s, scale), nil
		}
	}
	for _, s := range pc.LargeSuite() {
		if s.Name == name {
			return pc.Build(s, scale), nil
		}
	}
	for _, s := range sptrsv.Suite() {
		if s.Name == name {
			g, _ := sptrsv.Build(s, scale)
			return g, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (Table I names: %s)", name, strings.Join(Names(), ", "))
}

// Names lists every workload Build accepts, in suite order.
func Names() []string {
	var names []string
	for _, s := range pc.Suite() {
		names = append(names, s.Name)
	}
	for _, s := range pc.LargeSuite() {
		names = append(names, s.Name)
	}
	for _, s := range sptrsv.Suite() {
		names = append(names, s.Name)
	}
	return names
}

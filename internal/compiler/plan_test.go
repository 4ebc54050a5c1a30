package compiler_test

import (
	"reflect"
	"testing"

	"dpuv2/internal/arch"
	"dpuv2/internal/compiler"
	"dpuv2/internal/dse"
	"dpuv2/internal/suite"
)

// TestPlanEmitMatchesCompile: one plan per datapath of the DSE grid
// emits every R of that datapath twice, in reverse order, and every
// program equals a fresh Compile's field for field (CompileSeconds
// aside), errors included. Re-emitting from a used plan catches any state
// an Emit leaves behind in it; R=6 spills, which is where step 4 gives
// values memory words and grows the memory image. The first round's
// results are scribbled over before the second to show each emit owns
// them.
func TestPlanEmitMatchesCompile(t *testing.T) {
	rs := []int{16, 32, 64, 128, 6}
	var datapaths []arch.Config
	for _, cfg := range dse.Grid() {
		if cfg.R == rs[0] {
			datapaths = append(datapaths, cfg)
		}
	}
	emitted, spilled := 0, 0
	for _, name := range []string{"tretail", "msnbc", "dw2048", "bp_200"} {
		g, err := suite.Build(name, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range []compiler.Options{{}, {PartitionSize: 64}} {
			for _, dp := range datapaths {
				want := make([]*compiler.Compiled, len(rs))
				wantErr := make([]error, len(rs))
				for k, r := range rs {
					cfg := dp
					cfg.R = r
					want[k], wantErr[k] = compiler.Compile(g, cfg, opts)
				}
				plan, planErr := compiler.Plan(g, dp, opts)
				for round := 0; round < 2; round++ {
					for k := len(rs) - 1; k >= 0; k-- {
						cfg := dp
						cfg.R = rs[k]
						key := name + " " + cfg.String()
						if opts.PartitionSize > 0 {
							key += " partitioned"
						}
						got, gotErr := (*compiler.Compiled)(nil), planErr
						if planErr == nil {
							got, gotErr = plan.Emit(rs[k])
						}
						if (gotErr == nil) != (wantErr[k] == nil) || gotErr != nil && gotErr.Error() != wantErr[k].Error() {
							t.Fatalf("%s round %d: plan/emit error %v, Compile error %v", key, round, gotErr, wantErr[k])
						}
						if gotErr != nil {
							continue
						}
						if diff := compiledDiff(got, want[k]); diff != "" {
							t.Fatalf("%s round %d: Emit differs from Compile in %s", key, round, diff)
						}
						emitted++
						if got.Stats.SpillStores > 0 {
							spilled++
						}
						if round == 0 {
							clear(got.OutputWord)
							got.Stats = compiler.Stats{}
						}
					}
				}
			}
		}
	}
	if emitted == 0 || spilled == 0 {
		t.Fatalf("%d programs emitted, %d of them spilling: the comparison does not cover step 4's writes", emitted, spilled)
	}
}

// compiledDiff names the first field in which a and b differ, or returns
// "" when they agree on everything but CompileSeconds.
func compiledDiff(a, b *compiler.Compiled) string {
	sa, sb := a.Stats, b.Stats
	sa.CompileSeconds, sb.CompileSeconds = 0, 0
	switch {
	case !reflect.DeepEqual(a.Prog, b.Prog):
		return "Prog"
	case a.Graph.Fingerprint() != b.Graph.Fingerprint():
		return "Graph"
	case !reflect.DeepEqual(a.Remap, b.Remap):
		return "Remap"
	case !reflect.DeepEqual(a.InputWord, b.InputWord):
		return "InputWord"
	case !reflect.DeepEqual(a.ConstWord, b.ConstWord):
		return "ConstWord"
	case !reflect.DeepEqual(a.OutputWord, b.OutputWord):
		return "OutputWord"
	case sa != sb:
		return "Stats"
	case a.Revision != b.Revision:
		return "Revision"
	}
	return ""
}

// TestSpillFreeDraftsEmitNopForNop: step 3 schedules operand latency and
// each bank's one write port, so on a draft that needs no spill step 4
// has nothing left to stall on and emits step 3's schedule exactly, nop
// for nop. It checks every draft of the selection guards' compiles (the
// Table I graphs at 0.05 and 0.1 among them) and, outside -short, of the
// Table I graphs at 1.0.
func TestSpillFreeDraftsEmitNopForNop(t *testing.T) {
	cases := selectionCases(t)
	if !testing.Short() {
		for _, name := range tableINames() {
			cases = append(cases, selectionCase{name + "@1", build(t, name, 1), arch.MinEDP()})
		}
	}
	checked := 0
	for _, tc := range cases {
		p, err := compiler.Plan(tc.g, tc.cfg, compiler.Options{})
		if err != nil {
			continue // an infeasible grid point
		}
		n, err := p.CheckSpillFreeDrafts(tc.cfg.R)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		checked += n
	}
	t.Logf("%d compiles, %d spill-free drafts emitted nop for nop", len(cases), checked)
	if checked == 0 {
		t.Fatal("no draft was spill-free: the check covers nothing")
	}
}

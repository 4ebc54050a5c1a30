package compiler

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"dpuv2/internal/arch"
	"dpuv2/internal/suite"
)

// TestEmitStopsLosingRowDraft: where Plan keeps drafts that lose at step
// 4 (west2021 and rdb968 at 0.1, min-EDP, keep both layouts under both
// windows), each draft's step 4 capped at the shortest program before it
// stops with errNotShorter unless it is strictly shorter, and Emit builds
// the program of the first shortest draft, instruction for instruction.
func TestEmitStopsLosingRowDraft(t *testing.T) {
	for _, tc := range []struct {
		name   string
		drafts int
	}{{"west2021", 4}, {"rdb968", 4}} {
		g, err := suite.Build(tc.name, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		cfg := arch.MinEDP()
		p, err := Plan(g, cfg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(p.drafts) != tc.drafts {
			t.Fatalf("%s: Plan kept %d drafts, want %d", tc.name, len(p.drafts), tc.drafts)
		}
		emitCfg := p.cfg
		emitCfg.R = cfg.R
		stepFour := func(d *draft, limit int) ([]arch.Instr, error) {
			var ra regalloc
			var out instrBuf
			ra.reset(emitCfg, append([]valInfo(nil), d.vals...), d.rows, d.sched, d.stats, &out)
			err := ra.run(d.sched, limit)
			return out.instrs, err
		}
		win, shortest, stopped := -1, math.MaxInt, 0
		var want []arch.Instr
		for i, d := range p.drafts {
			full, err := stepFour(d, math.MaxInt)
			if err != nil {
				t.Fatalf("%s draft %d: %v", tc.name, i, err)
			}
			capped, err := stepFour(d, shortest)
			switch {
			case len(full) < shortest:
				if err != nil || !reflect.DeepEqual(capped, full) {
					t.Errorf("%s draft %d: %d instructions beat %d, but the capped run returns %v", tc.name, i, len(full), shortest, err)
				}
				win, shortest, want = i, len(full), full
			case !errors.Is(err, errNotShorter):
				t.Errorf("%s draft %d: step 4 capped at %d instructions returns %v, want errNotShorter", tc.name, i, shortest, err)
			default:
				stopped++
			}
		}
		if stopped == 0 {
			t.Errorf("%s: every draft beat the ones before it (winner %d): the case sees no stop", tc.name, win)
		}
		c, err := p.Emit(cfg.R)
		if err != nil {
			t.Fatal(err)
		}
		if len(c.Prog.Instrs) != len(want) {
			t.Fatalf("%s: Emit built %d instructions, draft %d emits %d", tc.name, len(c.Prog.Instrs), win, len(want))
		}
		for i, in := range c.Prog.Instrs {
			if !reflect.DeepEqual(*in, want[i]) {
				t.Fatalf("%s: Emit's instruction %d differs from draft %d's", tc.name, i, win)
			}
		}
		t.Logf("%s: %d drafts, draft %d wins with %d instructions, %d stopped", tc.name, len(p.drafts), win, shortest, stopped)
	}
}

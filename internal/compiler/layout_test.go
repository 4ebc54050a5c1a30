package compiler

import (
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"

	"dpuv2/internal/arch"
	"dpuv2/internal/suite"
)

// TestEmitStopsLosingRowDraft: where Plan keeps the row draft but it
// loses at step 4 (west2021 and rdb968 at 0.1, min-EDP), its step 4 run
// to completion is no shorter than first-fit's program, the run Emit
// makes stops with errNotShorter, and Emit builds first-fit's program.
func TestEmitStopsLosingRowDraft(t *testing.T) {
	for _, name := range []string{"west2021", "rdb968"} {
		g, err := suite.Build(name, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		cfg := arch.MinEDP()
		p, err := Plan(g, cfg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(p.drafts) != 2 {
			t.Fatalf("%s: Plan kept %d drafts, want both layouts", name, len(p.drafts))
		}
		emitCfg := p.cfg
		emitCfg.R = cfg.R
		stepFour := func(d *draft, limit int) ([]*arch.Instr, error) {
			st := d.stats
			return newRegalloc(emitCfg, slices.Clone(d.vals), d.rows, d.sched, &st).run(d.sched, limit)
		}
		firstFit, err := stepFour(p.drafts[0], math.MaxInt)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := stepFour(p.drafts[1], math.MaxInt)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) < len(firstFit) {
			t.Fatalf("%s: the row draft emits %d instructions, first-fit %d: it wins, and the case sees nothing", name, len(rows), len(firstFit))
		}
		if _, err := stepFour(p.drafts[1], len(firstFit)); !errors.Is(err, errNotShorter) {
			t.Errorf("%s: step 4 capped at first-fit's %d instructions returns %v, want errNotShorter", name, len(firstFit), err)
		}
		c, err := p.Emit(cfg.R)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(c.Prog.Instrs, firstFit) {
			t.Errorf("%s: Emit did not build first-fit's program", name)
		}
	}
}

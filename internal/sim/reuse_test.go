package sim

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"dpuv2/internal/arch"
	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
)

// freshRun is Run on a machine NewMachine has just built: the reference
// a pooled machine must be indistinguishable from.
func freshRun(c *compiler.Compiled, inputs []float64) (*Result, error) {
	return run(NewMachine(c.Prog.Cfg, c.Prog.InitMem), c, inputs)
}

func reuseProgram(t *testing.T, seed int64, cfg arch.Config) *compiler.Compiled {
	t.Helper()
	g := dag.RandomGraph(dag.RandomConfig{Inputs: 12, Interior: 120 + int(seed)*40, MaxArgs: 3, MulFrac: 0.5, Seed: seed})
	c, err := compiler.Compile(g, cfg, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// faulting returns c with its first load replaced by a nop: the first
// exec then reads a register nothing wrote, and the machine fails mid-run.
func faulting(t *testing.T, c *compiler.Compiled) *compiler.Compiled {
	t.Helper()
	bad, prog := *c, *c.Prog
	prog.Instrs = slices.Clone(prog.Instrs)
	i := slices.IndexFunc(prog.Instrs, func(in arch.Instr) bool { return in.Kind == arch.KindLoad })
	if i < 0 {
		t.Fatal("program has no load")
	}
	prog.Instrs[i] = arch.Instr{Kind: arch.KindNop}
	bad.Prog = &prog
	return &bad
}

func sameRun(t *testing.T, what string, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: pooled run %+v, fresh machine %+v", what, got.Stats, want.Stats)
	}
}

// TestRunReusesMachineExactly: running A, then B, then A on one
// configuration returns, each time, the outputs and Stats a fresh
// machine returns.
func TestRunReusesMachineExactly(t *testing.T) {
	cfg := arch.Config{D: 2, B: 16, R: 16, DataMemWords: 1<<18 + 16}
	a, b := reuseProgram(t, 1, cfg), reuseProgram(t, 2, cfg)
	for i, c := range []*compiler.Compiled{a, b, a} {
		in := randInputs(c.Graph, int64(i))
		got, err := Run(c, in)
		if err != nil {
			t.Fatal(err)
		}
		want, err := freshRun(c, in)
		if err != nil {
			t.Fatal(err)
		}
		sameRun(t, [...]string{"A", "B", "A again"}[i], got, want)
	}
}

// TestRunNeverReusesFaultedMachine: a run that fails with a hazard does
// not return its machine to the pool, and a machine reset after a fault
// runs like a fresh one.
func TestRunNeverReusesFaultedMachine(t *testing.T) {
	// A configuration no other test uses, so that its pool starts empty.
	cfg := arch.Config{D: 2, B: 16, R: 16, DataMemWords: 1<<18 + 32}
	c := reuseProgram(t, 3, cfg)
	bad := faulting(t, c)
	in := randInputs(c.Graph, 9)
	if _, err := Run(bad, in); err == nil {
		t.Fatal("the program without its first load ran clean")
	}
	if pool, ok := machines.Load(cfg.Normalize()); ok {
		if m := pool.(*sync.Pool).Get(); m != nil {
			t.Fatal("the faulted machine went back to the pool")
		}
	}
	want, err := freshRun(c, in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(c, in)
	if err != nil {
		t.Fatal(err)
	}
	sameRun(t, "after a faulted run", got, want)

	m := NewMachine(cfg, bad.Prog.InitMem)
	if _, err := run(m, bad, in); err == nil {
		t.Fatal("the program without its first load ran clean")
	}
	m.reset(c.Prog.InitMem)
	got, err = run(m, c, in)
	if err != nil {
		t.Fatal(err)
	}
	sameRun(t, "faulted machine reset", got, want)

	// And the fault a reset machine reports is the fresh machine's, word
	// for word: nothing of the good run's registers survives.
	_, wantErr := freshRun(bad, in)
	m.reset(bad.Prog.InitMem)
	if _, err := run(m, bad, in); err == nil || err.Error() != wantErr.Error() {
		t.Errorf("reset machine fails with %v, a fresh one with %v", err, wantErr)
	}
}

// TestRunSteadyStateAllocs: once a configuration's machine is pooled, a
// run allocates only its Result (the struct, the outputs map and the
// Instrs map; 5 allocations today), whatever the program's length. A
// machine built per run costs about 25 more. Under the race detector
// sync.Pool.Put drops one machine in four at random, so the count there
// says nothing about reuse and the test skips.
func TestRunSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	c := reuseProgram(t, 4, arch.MinEDP())
	in := randInputs(c.Graph, 4)
	if _, err := Run(c, in); err != nil {
		t.Fatal(err)
	}
	perRun := testing.AllocsPerRun(20, func() {
		if _, err := Run(c, in); err != nil {
			t.Fatal(err)
		}
	})
	if limit := 8.0; perRun > limit {
		t.Errorf("steady-state Run allocates %.0f times, want <= %.0f", perRun, limit)
	}
}

// TestRunParallelMixedConfigs runs programs of three configurations from
// several goroutines at once (run it under -race); every result is the
// fresh machine's.
func TestRunParallelMixedConfigs(t *testing.T) {
	var progs []*compiler.Compiled
	for i, cfg := range []arch.Config{arch.MinEDP(), {D: 1, B: 8, R: 32}, {D: 2, B: 16, R: 16}} {
		progs = append(progs, reuseProgram(t, int64(5+i), cfg), reuseProgram(t, int64(8+i), cfg))
	}
	want := make([]*Result, len(progs))
	for i, c := range progs {
		var err error
		if want[i], err = freshRun(c, randInputs(c.Graph, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 3*len(progs); k++ {
				i := (k + w) % len(progs)
				got, err := Run(progs[i], randInputs(progs[i].Graph, int64(i)))
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("worker %d program %d: pooled run differs from a fresh machine", w, i)
				}
			}
		}()
	}
	wg.Wait()
}

package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"dpuv2/internal/arch"
	"dpuv2/internal/artifact"
	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
	"dpuv2/internal/dse"
	"dpuv2/internal/energy"
	"dpuv2/internal/sim"
	"dpuv2/internal/verify"
)

// jobCounts are the exact counts one job produces; a pass sums them.
// All of them are functions of the compiler's output alone, so they
// repeat exactly from run to run.
type jobCounts struct {
	artifactBytes int
	graphNodes    int // nodes of the submitted graphs
	ops           int // arithmetic nodes executed (compiler.Stats.Nodes)
	instrs        int
	spills        int
	cycles        int64 // simulated cycles summed over vectors
	cyclesOnce    int64 // simulated cycles of one vector per graph
	vectors       int
	logEDP        float64 // Σ ln(EDP), for the geometric mean
	graphs        int
	sweepEDP      float64 // best EDP of the sweep job
}

func (c *jobCounts) add(o jobCounts) {
	c.artifactBytes += o.artifactBytes
	c.graphNodes += o.graphNodes
	c.ops += o.ops
	c.instrs += o.instrs
	c.spills += o.spills
	c.cycles += o.cycles
	c.cyclesOnce += o.cyclesOnce
	c.vectors += o.vectors
	c.logEDP += o.logEDP
	c.graphs += o.graphs
	if o.sweepEDP != 0 {
		c.sweepEDP = o.sweepEDP
	}
}

// runJob runs one job of the paper's offline flow and checks it: compile
// → static verification → artifact encode and decode → cycle-accurate
// simulation of the *decoded* program on every input vector → energy
// estimate. Each stage is one span under the job's root when rec is
// non-nil. The sweep job (j.graph == nil) is one dse.SweepParallel over
// the paper's 48-point grid with one worker.
func runJob(rec *recorder, id int, j job, sweep *dag.Graph) (jobCounts, error) {
	var n jobCounts
	root := rec.begin("job", -1, id)
	defer rec.end(root)
	stage := func(name string) func() {
		s := rec.begin(name, root, id)
		return func() { rec.end(s) }
	}
	if j.graph == nil {
		done := stage("dse.sweep48")
		points := dse.SweepParallel([]*dag.Graph{sweep}, dse.Grid(), compiler.Options{}, 1)
		done()
		best, ok := dse.Best(points, dse.MinEDP)
		if len(points) != len(dse.Grid()) || !ok {
			return n, fmt.Errorf("sweep of %s: %d points, feasible best: %v", sweep.Name, len(points), ok)
		}
		n.sweepEDP = best.EDP
		return n, nil
	}
	g := j.graph.g
	done := stage("compiler.compile")
	c, err := compiler.Compile(g, arch.MinEDP(), compiler.Options{})
	done()
	if err != nil {
		return n, fmt.Errorf("compile %s: %w", g.Name, err)
	}
	done = stage("verify.compiled")
	findings := verify.Compiled(c)
	done()
	if verify.HasErrors(findings) {
		return n, fmt.Errorf("verify %s: %s", g.Name, verify.Summary(findings))
	}
	done = stage("artifact.encode")
	image, err := artifact.EncodeBytes(&artifact.Artifact{Fingerprint: g.Fingerprint(), Compiled: c})
	done()
	if err != nil {
		return n, fmt.Errorf("encode %s: %w", g.Name, err)
	}
	done = stage("artifact.decode")
	a, err := artifact.DecodeBytes(image)
	done()
	if err != nil {
		return n, fmt.Errorf("decode %s: %w", g.Name, err)
	}
	c = a.Compiled
	var last *sim.Result
	for v, in := range j.inputs {
		done = stage("sim.run")
		res, err := sim.Run(c, in)
		done()
		if err != nil {
			return n, fmt.Errorf("simulate %s: %w", g.Name, err)
		}
		// Two references: the repo's own conformance check against the
		// compiled graph, and the benchmark's oracle, which never saw
		// the compiler's output.
		done = stage("oracle.check")
		err = sim.CheckOutputs(c, in, res, 0)
		got := make([]float64, len(j.want[v]))
		for k, sk := range g.Outputs() {
			got[k] = res.Outputs[c.Remap[sk]]
		}
		done()
		if err != nil {
			return n, fmt.Errorf("%s vector %d: %w", g.Name, v, err)
		}
		if !sameBits(got, j.want[v]) {
			return n, fmt.Errorf("%s vector %d: outputs %v, oracle %v", g.Name, v, got, j.want[v])
		}
		n.cycles += int64(res.Stats.Cycles)
		last = res
	}
	done = stage("energy.estimate")
	est := energy.EstimateRun(c.Prog.Cfg, c.Stats.Nodes, last.Stats, c.Prog)
	done()
	if !(est.EDP > 0) || math.IsInf(est.EDP, 0) {
		return n, fmt.Errorf("energy estimate of %s: EDP %v", g.Name, est.EDP)
	}
	n.artifactBytes = len(image)
	n.graphNodes = g.NumNodes()
	n.ops = c.Stats.Nodes
	n.instrs = c.Stats.Instructions
	n.spills = c.Stats.SpillStores
	n.cyclesOnce = int64(last.Stats.Cycles)
	n.vectors = len(j.inputs)
	n.logEDP = math.Log(est.EDP)
	n.graphs = 1
	return n, nil
}

// runPass runs every job of w once, in order, on this goroutine.
func runPass(ctx context.Context, rec *recorder, w *workload, t *tally, latMS *[]float64) (jobCounts, error) {
	var pass jobCounts
	for i, j := range w.jobs {
		if err := ctx.Err(); err != nil {
			return pass, err
		}
		t.Attempted++
		t0 := time.Now()
		n, err := runJob(rec, i, j, w.sweep)
		if err != nil {
			t.fail("%v", err)
			continue
		}
		if latMS != nil {
			*latMS = append(*latMS, float64(time.Since(t0))/1e6)
		}
		pass.add(n)
	}
	return pass, nil
}

// toolchainPhase is what the measured phase of `toolchain` observed.
// The system under test is this process, so CPU time and allocation
// are its own.
type toolchainPhase struct {
	tally
	elapsed time.Duration
	latMS   []float64
	counts  jobCounts // summed over the measured passes
	passes  int
	cpu     time.Duration
	mem     [2]runtime.MemStats
}

// measureToolchain runs whole passes for at least dur (or exactly
// `passes` passes when passes > 0), so the job mix is the same in every
// run.
func measureToolchain(ctx context.Context, w *workload, dur time.Duration, passes int) (toolchainPhase, error) {
	var out toolchainPhase
	runtime.ReadMemStats(&out.mem[0])
	cpu0, start := ownCPU(), time.Now()
	for ctx.Err() == nil {
		if passes > 0 && out.passes == passes || passes == 0 && time.Since(start) >= dur {
			break
		}
		n, err := runPass(ctx, nil, w, &out.tally, &out.latMS)
		if err != nil {
			return out, err
		}
		out.counts.add(n)
		out.passes++
	}
	out.elapsed = time.Since(start)
	out.cpu = ownCPU() - cpu0
	runtime.ReadMemStats(&out.mem[1])
	return out, ctx.Err()
}

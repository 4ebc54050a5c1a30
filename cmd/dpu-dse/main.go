// Command dpu-dse runs the full design-space exploration of §V over the
// benchmark suites and reports the min-latency, min-energy and min-EDP
// configurations (fig. 11/12). -timeout bounds the sweep's wall time:
// points the budget did not reach are reported as skipped, and the
// min-* winners are chosen over what was evaluated.
//
//	dpu-dse -scale 0.25 [-timeout 2m]
//
// Apart from the worker count in its first line, the report is the same
// at any -workers value.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
	"dpuv2/internal/dse"
	"dpuv2/internal/pc"
	"dpuv2/internal/sptrsv"
)

// run is the testable body of the command; it returns the process exit
// code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dpu-dse", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.Float64("scale", 0.25, "workload scale vs Table I sizes")
	seed := fs.Int64("seed", 0, "compiler randomization seed")
	workers := fs.Int("workers", 0, "sweep worker count (0: one per CPU)")
	timeout := fs.Duration("timeout", 0, "wall-clock sweep budget (0: none); unreached points are skipped")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	var suite []*dag.Graph
	for _, s := range pc.Suite() {
		suite = append(suite, pc.Build(s, *scale))
	}
	for _, s := range sptrsv.Suite() {
		g, _ := sptrsv.Build(s, *scale)
		suite = append(suite, g)
	}
	nw := *workers
	if nw <= 0 {
		nw = runtime.GOMAXPROCS(0)
	}
	fmt.Fprintf(stdout, "sweeping %d configurations over %d workloads (scale %.2f, %d workers)\n",
		len(dse.Grid()), len(suite), *scale, nw)
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	points := dse.SweepContext(ctx, suite, dse.Grid(), compiler.Options{Seed: *seed}, nw)
	fmt.Fprintf(stdout, "%-24s %10s %10s %12s %9s\n", "config", "lat(ns)", "E(pJ)", "EDP(pJ*ns)", "area(mm2)")
	skipped := 0
	for _, p := range points {
		switch {
		case p.Feasible:
			fmt.Fprintf(stdout, "%-24s %10.3f %10.2f %12.2f %9.2f\n",
				p.Cfg.String(), p.LatencyPerOp, p.EnergyPerOp, p.EDP, p.AreaMM2)
		case errors.Is(p.Err, context.DeadlineExceeded) || errors.Is(p.Err, context.Canceled):
			skipped++
		default:
			fmt.Fprintf(stdout, "%-24s infeasible: %v\n", p.Cfg.String(), p.Err)
		}
	}
	if skipped > 0 {
		fmt.Fprintf(stdout, "%d of %d points skipped: sweep budget %v expired\n", skipped, len(points), *timeout)
	}
	report := func(name string, m dse.Metric, paper string) {
		if p, ok := dse.Best(points, m); ok {
			fmt.Fprintf(stdout, "%-12s %-24s (paper: %s)\n", name, p.Cfg.String(), paper)
		} else {
			fmt.Fprintf(stderr, "%s: no feasible point\n", name)
		}
	}
	report("min latency:", dse.MinLatency, "D=3,B=64,R=128")
	report("min energy:", dse.MinEnergy, "D=3,B=16,R=64")
	report("min EDP:", dse.MinEDP, "D=3,B=64,R=32")
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// Command dpu-dse runs the full design-space exploration of §V over the
// benchmark suites and reports the min-latency, min-energy and min-EDP
// configurations (fig. 11/12). -timeout bounds the sweep's wall time:
// points the budget did not reach are reported as skipped, and the
// min-* winners are chosen over what was evaluated.
//
//	dpu-dse -scale 0.25 [-timeout 2m]
//
// -search anneal continues past the grid: simulated annealing seeded
// from the best grid point on -metric explores the enlarged config
// space (deeper trees, wider bank/register ladders, alternate output
// topologies, data-memory sizing) and reports whether it beat the grid.
// -seed doubles as the anneal RNG seed; the search is deterministic at
// any -workers value, and -trace writes the accepted-move record as
// JSON for byte-for-byte comparison across runs:
//
//	dpu-dse -scale 0.05 -search anneal -metric edp -seed 7 -trace t.json
package main

import (
	"context"
	"encoding/json"
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
	seed := fs.Int64("seed", 0, "compiler randomization seed; with -search anneal, also the search RNG seed")
	workers := fs.Int("workers", 0, "sweep worker count (0: one per CPU)")
	timeout := fs.Duration("timeout", 0, "wall-clock sweep budget (0: none); unreached points are skipped")
	searchName := fs.String("search", "grid", "candidate search: grid (the 48-point sweep) or anneal (annealing past the grid)")
	metricName := fs.String("metric", "edp", "anneal optimization target: latency, energy or edp")
	chains := fs.Int("chains", 0, "anneal: independent chain count (0: default 4)")
	steps := fs.Int("steps", 0, "anneal: mutation steps per chain (0: default 48)")
	tracePath := fs.String("trace", "", "with -search anneal: write the accepted-move search trace as JSON to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *searchName != "grid" && *searchName != "anneal" {
		fmt.Fprintf(stderr, "dpu-dse: unknown search kind %q (want grid or anneal)\n", *searchName)
		return 2
	}
	anneal := *searchName == "anneal"
	var metric dse.Metric
	if err := metric.ParseMetric(*metricName); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *chains < 0 || *steps < 0 {
		fmt.Fprintf(stderr, "dpu-dse: -chains %d / -steps %d must be non-negative\n", *chains, *steps)
		return 2
	}
	if *tracePath != "" && !anneal {
		fmt.Fprintln(stderr, "dpu-dse: -trace requires -search anneal")
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

	if !anneal {
		return 0
	}

	// Anneal continues from the sweep just run: the evaluated grid is the
	// pre-scored start set, so the chains seed from the winner above
	// without re-sweeping.
	all, tr := dse.SearchAnneal(ctx, suite, compiler.Options{Seed: *seed}, dse.AnnealOptions{
		Seed:        *seed,
		Chains:      *chains,
		Steps:       *steps,
		Metric:      metric,
		StartPoints: points,
		Workers:     nw,
	})
	fmt.Fprintf(stdout, "anneal:      seed %d, %d chains × %d steps on %s: %d evaluated, %d accepted, %d rejected\n",
		tr.Seed, tr.Chains, tr.Steps, tr.Metric, tr.Evaluated, tr.Accepted, tr.Rejected)
	gridBest, gok := dse.Best(points, metric)
	annealBest, aok := dse.Best(all, metric)
	switch {
	case !aok:
		fmt.Fprintf(stderr, "anneal: no feasible point\n")
	case !gok || metric.Value(annealBest) < metric.Value(gridBest):
		win := 0.0
		if gok {
			win = 100 * (1 - metric.Value(annealBest)/metric.Value(gridBest))
		}
		fmt.Fprintf(stdout, "anneal best: %-24s %s %.4f (%.1f%% better than the grid)\n",
			annealBest.Cfg.String(), tr.Metric, metric.Value(annealBest), win)
	default:
		fmt.Fprintf(stdout, "anneal best: %-24s %s %.4f (the grid point stands)\n",
			annealBest.Cfg.String(), tr.Metric, metric.Value(annealBest))
	}
	if tr.Canceled {
		fmt.Fprintf(stdout, "anneal: budget expired before the schedule completed (trace covers the truncated run)\n")
	}

	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(tr); err != nil {
			f.Close()
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

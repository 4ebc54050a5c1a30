// Command bench is the repository's benchmark: four workloads, seven
// end-to-end metrics each, and a per-layer traced replay. BENCHMARK.json
// at the repository root names the command; README.md in this directory
// defines every workload and metric and says how to state a claim with
// them.
//
//	go run ./bench                          all four workloads, both halves
//	go run ./bench -workload serve_hot -seed 3 -seconds 10 -trace 0
//	go run ./bench -repeat 5 -trace 0       run-to-run spread against the bounds
//
// It must run from the repository root (it builds ./cmd/dpu-serve), on
// Linux (it reads /proc). The last line of standard output is one JSON
// object; with -workload it has the shape BENCHMARK.json's driver reads.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// config is what the flags choose.
type config struct {
	seed    int64
	seconds time.Duration
	// trace selects the halves to run: 0 end-to-end only, 1 per-layer
	// only (the measured phase still runs — the real server's counters
	// and the driver's latencies are per-layer inputs), -1 both.
	trace int
	// setups is how many times a run sets a workload up and measures it;
	// each gets an equal share of seconds.
	setups int
	// opsCap, when positive, replaces every duration and fixed count by
	// at most this many operations. Only the smoke test sets it.
	opsCap int
}

func (c config) cap(n int) int {
	if c.opsCap > 0 && n > c.opsCap {
		return c.opsCap
	}
	return n
}

const (
	// setupRuns is config.setups outside tests.
	setupRuns = 3
	// offlinePasses is how many traced passes the offline probe makes.
	offlinePasses = 3
	// workloadTimeout is the hard bound on one workload, well inside the
	// 180 s a run may take.
	workloadTimeout = 150 * time.Second
)

// environment is the machine and process layout of a run, recorded in
// the report, plus the way to start a system under test.
type environment struct {
	NProc       int    `json:"nproc"`
	GoVersion   string `json:"go_version"`
	DriverProcs int    `json:"driver_gomaxprocs"`
	ServerProcs int    `json:"server_gomaxprocs"`
	Conns       int    `json:"connections"`
	// start brings up a fresh dpu-serve for w with its artifact store
	// (if the workload has one) in storeDir.
	start  func(ctx context.Context, w *workload, storeDir string) (*server, error)
	runDir string
}

// result is one workload's outcome.
type result struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Correct  bool               `json:"correct"`
	tally                       // every checked operation of the run
	EndToEnd map[string]float64 `json:"end_to_end,omitempty"`
	PerLayer layers             `json:"per_layer,omitempty"`
	// Repetitions are the end-to-end metrics of each repetition, the
	// values EndToEnd is the per-metric median of.
	Repetitions []map[string]float64 `json:"repetitions,omitempty"`
	// Tail is the highest latency percentile the measured phase's sample
	// supports (at least ten samples beyond it); the fixed p90/p99/max
	// under driver.* are recorded regardless.
	Tail  tail   `json:"tail"`
	spans []span // written to the span file, not the report
}

type tail struct {
	Percentile float64 `json:"percentile"`
	ValueMS    float64 `json:"value_ms"`
	Samples    int     `json:"samples"`
}

// runWorkload generates one workload from the seed, measures it and, if
// asked, replays it traced. A failed operation is not an error: it is
// reported in the result, whose Correct is then false.
func runWorkload(ctx context.Context, env *environment, cfg config, name string) (*result, error) {
	ctx, cancel := context.WithTimeout(ctx, workloadTimeout)
	defer cancel()
	r := &result{Workload: name, Seed: cfg.seed}
	dir, err := os.MkdirTemp(env.runDir, name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	w, err := buildWorkload(name, cfg.seed)
	if err != nil {
		return nil, err
	}
	e, m, err := measure(ctx, env, cfg, w, dir, r)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if r.Failed > 0 {
		return r, nil
	}
	if cfg.trace != 1 {
		r.EndToEnd = e
	}
	if cfg.trace == 0 {
		r.Correct = true
		return r, nil
	}

	online, spansOn, t, err := replay(ctx, w, dir, cfg.cap(w.replayOps))
	r.merge(t)
	if err != nil {
		return nil, fmt.Errorf("%s: traced replay: %w", name, err)
	}
	offline, spansOff, t, err := offlineProbe(ctx, w, offlinePasses)
	r.merge(t)
	if err != nil {
		return nil, fmt.Errorf("%s: offline probe: %w", name, err)
	}
	r.spans = append(spansOn, spansOff...)
	if r.Failed > 0 {
		return r, nil
	}
	// Source B first, then the measured phase on top: on a serve
	// workload the sched.* and engine.* counters are the real server's;
	// toolchain has no server, so its replay's in-process one stands in.
	r.PerLayer = layers{}
	for _, part := range []layers{online, offline, m} {
		for k, v := range part {
			r.PerLayer[k] = v
		}
	}
	for _, d := range perLayer {
		if _, ok := r.PerLayer[d.Name]; !ok {
			return nil, fmt.Errorf("%s: per-layer metric %s was not measured", name, d.Name)
		}
	}
	r.Correct = true
	return r, nil
}

// buildServer compiles cmd/dpu-serve into dir. It runs before any clock
// starts; nothing the benchmark reports includes it.
func buildServer(ctx context.Context, dir string) (string, error) {
	if _, err := os.Stat("cmd/dpu-serve"); err != nil {
		return "", errors.New("run the benchmark from the repository root (cmd/dpu-serve not found here)")
	}
	bin := filepath.Join(dir, "dpu-serve")
	cmd := exec.CommandContext(ctx, "go", "build", "-buildvcs=false", "-o", bin, "./cmd/dpu-serve")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/dpu-serve: %v\n%s", err, out)
	}
	return bin, nil
}

// newEnvironment fixes the process layout: the driver keeps one P, the
// server child gets the rest, so the two never fight over a core.
func newEnvironment(runDir string) *environment {
	n := runtime.NumCPU()
	return &environment{
		NProc: n, GoVersion: runtime.Version(),
		DriverProcs: 1, ServerProcs: max(1, n-1), Conns: n,
		runDir: runDir,
	}
}

// childStarter returns an environment.start that spawns bin.
func childStarter(procs *procGroup, bin string, serverProcs int) func(context.Context, *workload, string) (*server, error) {
	return func(ctx context.Context, w *workload, storeDir string) (*server, error) {
		var args []string
		if w.store {
			args = []string{"-cache", fmt.Sprint(replayCache), "-artifact-dir", storeDir}
		}
		return procs.startChild(ctx, bin, args, serverProcs)
	}
}

func main() {
	os.Exit(run())
}

func run() int {
	cfg := config{setups: setupRuns}
	workloadFlag := flag.String("workload", "", "run one workload ("+strings.Join(workloadNames, ", ")+"); default all")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: input vectors, circuit weights and request order derive from it")
	seconds := flag.Int("seconds", 10, "measured time per workload in seconds, shared equally by the run's repetitions")
	flag.IntVar(&cfg.trace, "trace", -1, "0: end-to-end metrics only; 1: per-layer metrics (measured phase plus traced replay); default both")
	repeat := flag.Int("repeat", 1, "noise mode: run everything N times, seeds seed…seed+N-1, and report each metric's spread against its bound")
	outDir := flag.String("out", ".bench_build", "directory for the report, the span file and scratch data")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *repeat < 1 || cfg.trace < -1 || cfg.trace > 1 {
		flag.Usage()
		return 2
	}
	cfg.seconds = time.Duration(*seconds) * time.Second
	names := workloadNames
	if *workloadFlag != "" {
		names = []string{*workloadFlag}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	runtime.GOMAXPROCS(1)
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	runDir, err := os.MkdirTemp(*outDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(runDir)
	env := newEnvironment(runDir)
	procs := &procGroup{}
	defer procs.killAll()
	if len(names) > 1 || servesHTTP(names[0]) {
		bin, err := buildServer(ctx, runDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		env.start = childStarter(procs, bin, env.ServerProcs)
	}

	var runs [][]*result
	code := 0
	for i := 0; i < *repeat && code == 0; i++ {
		c := cfg
		c.seed += int64(i)
		var results []*result
		for _, name := range names {
			r, err := runWorkload(ctx, env, c, name)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			printResult(os.Stdout, r)
			results = append(results, r)
			if !r.Correct {
				code = 1
			}
		}
		runs = append(runs, results)
	}
	last := runs[len(runs)-1]
	if err := writeReport(*outDir, env, cfg, runs); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *repeat > 1 && code == 0 && !printSpread(os.Stdout, runs) {
		code = 1
	}
	if err := printSummary(os.Stdout, last, cfg.trace, *workloadFlag != ""); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return code
}

// summary is the last line of standard output. For one workload it is
// exactly what BENCHMARK.json's driver reads.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics,omitempty"`
	Workloads map[string]summary     `json:"workloads,omitempty"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func summarize(r *result, trace int) summary {
	s := summary{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	if !r.Correct {
		return s
	}
	if trace != 1 {
		for _, d := range endToEnd {
			s.Metrics[d.Name] = metricValue{r.EndToEnd[d.Name], d.Unit}
		}
	}
	if trace != 0 {
		for _, d := range perLayer {
			s.Metrics[d.Name] = metricValue{r.PerLayer[d.Name], d.Unit}
		}
	}
	return s
}

func printSummary(w *os.File, results []*result, trace int, single bool) error {
	var s summary
	if single {
		s = summarize(results[0], trace)
	} else {
		s = summary{Correct: true, Workloads: map[string]summary{}}
		for _, r := range results {
			one := summarize(r, trace)
			s.Workloads[r.Workload] = one
			s.Correct = s.Correct && one.Correct
			s.Attempted += one.Attempted
			s.Failed += one.Failed
		}
	}
	b, err := json.Marshal(s)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// printResult prints every metric of one workload by name and unit.
func printResult(w *os.File, r *result) {
	fmt.Fprintf(w, "\n== %s (seed %d): attempted %d, failed %d\n", r.Workload, r.Seed, r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "   FAILED: %s\n", f)
	}
	for _, d := range endToEnd {
		if v, ok := r.EndToEnd[d.Name]; ok {
			fmt.Fprintf(w, "   %-30s %14.4f %s\n", d.Name, v, d.Unit)
		}
	}
	if r.Tail.Samples > 0 {
		fmt.Fprintf(w, "   highest supported tail: p%g = %.4f ms over %d samples (not gated)\n",
			r.Tail.Percentile, r.Tail.ValueMS, r.Tail.Samples)
	}
	for _, d := range perLayer {
		if v, ok := r.PerLayer[d.Name]; ok {
			fmt.Fprintf(w, "   %-30s %14.4f %s\n", d.Name, v, d.Unit)
		}
	}
}

// printSpread prints, per workload and metric, min/median/max over the
// runs and the interquartile spread as a share of the median, which for
// an end-to-end metric is also shown against its bound. It reports
// whether every end-to-end spread stayed within its bound.
func printSpread(w *os.File, runs [][]*result) bool {
	ok := true
	fmt.Fprintf(w, "\n== spread over %d runs (IQR / median, quartiles as Python's statistics.quantiles)\n", len(runs))
	fmt.Fprintf(w, "   %-12s %-30s %12s %12s %12s %8s %8s\n", "workload", "metric", "min", "median", "max", "spread", "/bound")
	for wi := range runs[0] {
		row := func(d metricDef, pick func(*result) (float64, bool)) {
			var xs []float64
			for _, run := range runs {
				if v, has := pick(run[wi]); has {
					xs = append(xs, v)
				}
			}
			if len(xs) < 2 {
				return
			}
			s := sorted(xs)
			sp := spread(xs)
			rel := ""
			if d.Bound > 0 {
				rel = fmt.Sprintf("%8.2f", sp/d.Bound)
				if sp > d.Bound {
					ok = false
					rel += " OVER"
				}
			}
			fmt.Fprintf(w, "   %-12s %-30s %12.4f %12.4f %12.4f %7.2f%% %s\n",
				runs[0][wi].Workload, d.Name, s[0], median(xs), s[len(s)-1], sp*100, rel)
		}
		for _, d := range endToEnd {
			row(d, func(r *result) (float64, bool) { v, has := r.EndToEnd[d.Name]; return v, has })
		}
		for _, d := range perLayer {
			row(d, func(r *result) (float64, bool) { v, has := r.PerLayer[d.Name]; return v, has })
		}
	}
	return ok
}

// writeReport writes report.json (environment, every run's results) and
// spans.json (the last run's spans, per workload) into dir.
func writeReport(dir string, env *environment, cfg config, runs [][]*result) error {
	report := struct {
		Env     *environment `json:"environment"`
		Seed    int64        `json:"seed"`
		Seconds float64      `json:"seconds"`
		Trace   int          `json:"trace"`
		Runs    [][]*result  `json:"runs"`
	}{env, cfg.seed, cfg.seconds.Seconds(), cfg.trace, runs}
	if err := writeJSON(filepath.Join(dir, "report.json"), report); err != nil {
		return err
	}
	spans := map[string][]span{}
	for _, r := range runs[len(runs)-1] {
		if len(r.spans) > 0 {
			spans[r.Workload] = r.spans
		}
	}
	if len(spans) == 0 {
		return nil
	}
	return writeJSON(filepath.Join(dir, "spans.json"), spans)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

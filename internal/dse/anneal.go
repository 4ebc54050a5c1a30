// Annealing-based design-space search — the escape hatch from the
// paper's fixed 48-point grid. Where Sweep can only score the D/B/R
// combinations of §V, SearchAnneal explores an enlarged combinatorial
// space (deeper trees, off-grid bank/register ladders, every supported
// output topology, data-memory sizing) with parallel simulated
// annealing: a fixed number of independent chains, each seeded from the
// best start-set point, each mutating exactly one knob per step and
// accepting worse candidates with a geometrically cooled probability.
//
// Determinism is a hard contract, not an aspiration:
//
//   - every chain owns a rand/v2 PCG seeded from (Seed, chain index),
//     so the accepted-move trace is a pure function of the options;
//   - the chain count is fixed by AnnealOptions.Chains, never derived
//     from Workers — parallelism changes wall time, not results;
//   - winners are chosen by Best, whose metric ties break on the
//     canonical config order, so equal-scoring candidates cannot make
//     the outcome depend on evaluation order.
//
// Same (Seed, Chains, Steps) therefore reproduces the identical trace
// and winner at any worker count. Cancellation truncates, it never
// corrupts: an expired budget returns the points evaluated so far with
// the best of them, never an empty result.
package dse

import (
	"context"
	"errors"
	"math"
	randv2 "math/rand/v2"

	"dpuv2/internal/arch"
	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
	"dpuv2/internal/engine"
	"dpuv2/internal/par"
)

// The enlarged mutation space. The grid stops at B=64/R=128 with the
// per-layer interconnect; the ladders below extend one power-of-two
// rung past it on both ends and admit the other two supported
// topologies. Every rung passes engine.CheckMachineBounds — candidates
// beyond what the *compiler* supports (e.g. B=128 exceeds its bank
// allocator) are emitted, scored infeasible and rejected as moves,
// which is exactly how the search learns the boundary.
var (
	annealBLadder   = []int{4, 8, 16, 32, 64, 128}
	annealRLadder   = []int{8, 16, 32, 64, 128, 256}
	annealMemLadder = []int{1 << 16, 1 << 17, 1 << 18, 1 << 19, 1 << 20}
	// OutOneToOne is modeled but rejected by the compiler up front, so
	// mutating onto it would only burn budget.
	annealTopologies = []arch.OutputTopology{arch.OutCrossbar, arch.OutPerLayer, arch.OutPerPE}
)

// maxAnnealD matches arch.Config.Validate's supported depth range.
const maxAnnealD = 6

// mutateAttempts bounds the rejection-sampling loop of one mutation
// step: a draw that lands on an invalid neighbor (D step breaking the
// B%2^D constraint, a ladder edge, a guard rejection) retries with
// fresh randomness instead of failing the step.
const mutateAttempts = 32

// AnnealOptions parameterize SearchAnneal. The zero value is usable:
// it seeds from the paper's grid and runs the default chain shape.
type AnnealOptions struct {
	// Seed is the search's RNG seed. Together with Chains and Steps it
	// fully determines the accepted-move trace and the winner.
	Seed int64
	// Chains is the number of independent annealing chains (default 4).
	// It is part of the search's identity, deliberately decoupled from
	// Workers: results are identical at any parallelism.
	Chains int
	// Steps is the per-chain mutation budget in candidate points
	// (default 48 — a second grid's worth per chain).
	Steps int
	// InitTemp is the initial temperature as a relative metric
	// distance: a candidate InitTemp·100% worse than the current point
	// is accepted with probability 1/e at step 0 (default 0.08).
	InitTemp float64
	// Cool is the geometric per-step temperature decay in (0, 1]
	// (default 0.92).
	Cool float64
	// Metric is the optimization target (default MinLatency).
	Metric Metric
	// Start is the seed candidate set, swept first so the chains start
	// from its best feasible point; nil means Grid(), the paper's 48
	// configurations.
	Start []arch.Config
	// StartPoints, when non-nil, supplies the start set pre-evaluated
	// (e.g. a sweep the caller already ran) and suppresses the Start
	// sweep entirely.
	StartPoints []Point
	// Workers sizes the worker pool for the start sweep and the chain
	// fan-out (<= 0: one per CPU). It never affects results.
	Workers int
	// Guard pre-screens every mutated candidate before it is compiled;
	// nil means engine.CheckMachineBounds, so the search can never
	// propose a configuration the serving layer would refuse to build.
	Guard func(arch.Config) error
}

// Normalized fills defaulted fields, the shape recorded in traces.
func (o AnnealOptions) Normalized() AnnealOptions {
	if o.Chains <= 0 {
		o.Chains = 4
	}
	if o.Steps <= 0 {
		o.Steps = 48
	}
	if o.InitTemp <= 0 {
		o.InitTemp = 0.08
	}
	if o.Cool <= 0 || o.Cool > 1 {
		o.Cool = 0.92
	}
	if o.Metric < MinLatency || o.Metric > MinEDP {
		o.Metric = MinLatency
	}
	if o.Start == nil {
		o.Start = Grid()
	}
	if o.Guard == nil {
		o.Guard = engine.CheckMachineBounds
	}
	return o
}

// Scored is the JSON-friendly projection of an evaluated configuration
// the trace records.
type Scored struct {
	Config arch.Config `json:"config"`
	Value  float64     `json:"value"`
}

// Move is one accepted annealing move: chain and step identify its
// position in the schedule, Knob names the mutated parameter.
type Move struct {
	Chain  int         `json:"chain"`
	Step   int         `json:"step"`
	Knob   string      `json:"knob"`
	Config arch.Config `json:"config"`
	Value  float64     `json:"value"`
}

// Trace is the reproducibility record of one SearchAnneal run: the
// exact options that determine it, the accepted-move sequence, and the
// outcome. Two runs with equal options must produce byte-identical
// JSON encodings of their traces — the property the determinism tests
// and the CI anneal step diff for.
type Trace struct {
	Seed     int64   `json:"seed"`
	Chains   int     `json:"chains"`
	Steps    int     `json:"steps"`
	InitTemp float64 `json:"init_temp"`
	Cool     float64 `json:"cool"`
	Metric   string  `json:"metric"`
	// StartFound/Start is the best feasible start-set point the chains
	// seeded from; StartFound false means nothing was feasible (or the
	// start sweep was canceled) and no chains ran.
	StartFound bool   `json:"start_found"`
	Start      Scored `json:"start"`
	// Evaluated counts candidate evaluations across all chains
	// (excluding the start sweep); Accepted + Rejected account every
	// chain step that ran (rejected includes infeasible candidates and
	// exhausted mutation draws).
	Evaluated int    `json:"evaluated"`
	Accepted  int    `json:"accepted"`
	Rejected  int    `json:"rejected"`
	Moves     []Move `json:"moves"`
	// BestFound/Best is the winner over start set and chains combined,
	// ties broken canonically.
	BestFound bool   `json:"best_found"`
	Best      Scored `json:"best"`
	// Canceled reports that the context expired before the schedule
	// completed; the trace then covers the truncated run.
	Canceled bool `json:"canceled,omitempty"`
}

// SearchAnneal runs parallel simulated annealing over the enlarged
// config space: sweep the start set, seed every chain from its best
// feasible point, then mutate one knob per step under the geometric
// temperature schedule. It returns every evaluated point — the start
// set first (in order), then each chain's candidates in (chain, step)
// order — and the trace; pick the winner with Best over the returned
// points. Cancellation of ctx returns promptly with the points
// evaluated so far (never an empty slice when the start set is
// non-empty, never missing a best-so-far that was already found).
func SearchAnneal(ctx context.Context, workloads []*dag.Graph, opts compiler.Options, aopts AnnealOptions) ([]Point, Trace) {
	a := aopts.Normalized()
	tr := Trace{
		Seed:     a.Seed,
		Chains:   a.Chains,
		Steps:    a.Steps,
		InitTemp: a.InitTemp,
		Cool:     a.Cool,
		Metric:   a.Metric.String(),
		Moves:    []Move{},
	}
	points := a.StartPoints
	if points == nil {
		points = SweepContext(ctx, workloads, a.Start, opts, a.Workers)
	}
	// The returned slice must not alias caller-owned StartPoints once
	// chain results are appended.
	points = points[:len(points):len(points)]

	start, ok := Best(points, a.Metric)
	if !ok {
		tr.Canceled = ctx.Err() != nil
		return points, tr
	}
	tr.StartFound = true
	tr.Start = Scored{Config: start.Cfg, Value: a.Metric.Value(start)}

	results := make([]chainResult, a.Chains)
	par.ForEach(a.Chains, a.Workers, func(i int) {
		results[i] = a.runChain(ctx, i, workloads, opts, start)
	})
	for _, r := range results {
		points = append(points, r.points...)
		tr.Moves = append(tr.Moves, r.moves...)
		tr.Accepted += len(r.moves)
		tr.Rejected += r.rejected
		tr.Evaluated += len(r.points)
		tr.Canceled = tr.Canceled || r.canceled
	}
	if best, ok := Best(points, a.Metric); ok {
		tr.BestFound = true
		tr.Best = Scored{Config: best.Cfg, Value: a.Metric.Value(best)}
	}
	return points, tr
}

// chainResult is one chain's contribution, assembled in chain order so
// the combined output is independent of worker interleaving.
type chainResult struct {
	points   []Point
	moves    []Move
	rejected int
	canceled bool
}

// runChain walks one annealing chain. All randomness comes from the
// chain's own PCG, all candidate scoring from evaluatePoint — nothing
// shared, nothing ordering-dependent.
func (a AnnealOptions) runChain(ctx context.Context, chain int, workloads []*dag.Graph, opts compiler.Options, start Point) chainResult {
	var res chainResult
	rng := randv2.New(randv2.NewPCG(uint64(a.Seed), uint64(chain)+1))
	cur := start.Cfg
	curV := a.Metric.Value(start)
	temp := a.InitTemp
	for step := 0; step < a.Steps; step, temp = step+1, temp*a.Cool {
		if ctx.Err() != nil {
			res.canceled = true
			break
		}
		cand, knob := mutateConfig(cur, a.Guard, rng)
		if knob == "" {
			// No valid neighbor found in mutateAttempts draws; burn the
			// step, not an evaluation.
			res.rejected++
			continue
		}
		p := evaluatePoint(ctx, workloads, cand, opts)
		if errors.Is(p.Err, context.Canceled) || errors.Is(p.Err, context.DeadlineExceeded) {
			res.canceled = true
			break
		}
		res.points = append(res.points, p)
		if p.Feasible {
			v := a.Metric.Value(p)
			// Classic Metropolis acceptance on the relative regression:
			// improvements (and plateau moves, exp(0)=1) always accepted,
			// regressions with probability exp(-rel/T).
			accept := v <= curV
			if !accept && curV > 0 {
				rel := (v - curV) / curV
				accept = rng.Float64() < math.Exp(-rel/temp)
			}
			if accept {
				cur, curV = p.Cfg, v
				res.moves = append(res.moves, Move{Chain: chain, Step: step, Knob: knob, Config: p.Cfg, Value: v})
				continue
			}
		}
		res.rejected++
	}
	return res
}

// mutateConfig returns a neighbor of cfg differing in exactly one knob
// — D, B, R, Output or DataMemWords — that validates, passes the guard
// and is already in normalized form (cfg must be normalized, and the
// single-field edits preserve that). The second return names the
// mutated knob; "" means no valid neighbor was found within the
// attempt budget and cfg is returned unchanged.
func mutateConfig(cfg arch.Config, guard func(arch.Config) error, rng *randv2.Rand) (arch.Config, string) {
	for try := 0; try < mutateAttempts; try++ {
		cand := cfg
		knob := ""
		up := rng.IntN(2) == 1
		switch rng.IntN(5) {
		case 0:
			knob = "D"
			if up {
				cand.D++
			} else {
				cand.D--
			}
		case 1:
			knob = "B"
			cand.B = ladderStep(annealBLadder, cfg.B, up)
		case 2:
			knob = "R"
			cand.R = ladderStep(annealRLadder, cfg.R, up)
		case 3:
			knob = "Output"
			others := make([]arch.OutputTopology, 0, len(annealTopologies))
			for _, t := range annealTopologies {
				if t != cfg.Output {
					others = append(others, t)
				}
			}
			cand.Output = others[rng.IntN(len(others))]
		case 4:
			knob = "DataMemWords"
			cand.DataMemWords = ladderStep(annealMemLadder, cfg.DataMemWords, up)
		}
		if cand == cfg || cand.D < 1 || cand.D > maxAnnealD {
			continue
		}
		if cand.Validate() != nil || guard(cand) != nil {
			continue
		}
		return cand, knob
	}
	return cfg, ""
}

// ladderStep moves v one rung up or down a sorted ladder; off-ladder
// values move to the nearest rung in the requested direction. Returns
// v unchanged when no rung exists that way (the caller's no-op check
// rejects the draw).
func ladderStep(ladder []int, v int, up bool) int {
	if up {
		for _, l := range ladder {
			if l > v {
				return l
			}
		}
		return v
	}
	for i := len(ladder) - 1; i >= 0; i-- {
		if ladder[i] < v {
			return ladder[i]
		}
	}
	return v
}

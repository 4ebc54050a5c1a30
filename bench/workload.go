package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"dpuv2/internal/dag"
	"dpuv2/internal/pc"
	"dpuv2/internal/sptrsv"
	"dpuv2/internal/suite"
)

// graphSpec is one graph of a workload's population with everything the
// oracle needs. The oracle is dag.Eval on the benchmark's own
// dag.Binarize of the graph, read back through the remap: the stack
// executes the binarized graph, and a k-ary sum evaluated left to right
// (plain dag.EvalOutputs) differs from its balanced binary tree in the
// last bit.
type graphSpec struct {
	g     *dag.Graph // as submitted, possibly k-ary
	text  string     // dag.Write form, the "graph" field of a request
	bin   *dag.Graph
	remap []dag.NodeID
}

func newGraphSpec(g *dag.Graph) (*graphSpec, error) {
	var sb strings.Builder
	if err := dag.Write(&sb, g); err != nil {
		return nil, fmt.Errorf("render %s: %w", g.Name, err)
	}
	bin, remap := dag.Binarize(g)
	return &graphSpec{g: g, text: sb.String(), bin: bin, remap: remap}, nil
}

// oracle returns the reference sink values for in, in g.Outputs() order
// — the order the serving stack answers in.
func (s *graphSpec) oracle(in []float64) ([]float64, error) {
	vals, err := dag.Eval(s.bin, in)
	if err != nil {
		return nil, err
	}
	sinks := s.g.Outputs()
	out := make([]float64, len(sinks))
	for j, sk := range sinks {
		out[j] = vals[s.remap[sk]]
	}
	return out, nil
}

func finite(xs []float64) bool {
	for _, x := range xs {
		if math.IsInf(x, 0) || math.IsNaN(x) {
			return false
		}
	}
	return true
}

// sameBits reports whether got equals want bit for bit.
func sameBits(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return false
		}
	}
	return true
}

// request is one pre-rendered POST /execute with its reference answer.
// Bodies are rendered once, before any clock starts, so the driver's
// per-request cost is a write, a read and a compare.
type request struct {
	graph  *graphSpec
	inputs [][]float64
	want   [][]float64
	body   []byte
}

// vectors draws n input vectors for s, uniform in [0,1), with their
// reference outputs. JSON cannot carry ±Inf/NaN and the server itemizes
// them as errors, so a vector whose reference output is not finite is
// redrawn (deterministically: the next draw of the same stream).
func vectors(s *graphSpec, n int, rng *rand.Rand) (ins, wants [][]float64, err error) {
	nIn := len(s.g.Inputs())
	for tries := 0; len(ins) < n; tries++ {
		if tries > 4*n+16 {
			return nil, nil, fmt.Errorf("%s: cannot draw %d input vectors with finite outputs", s.g.Name, n)
		}
		in := make([]float64, nIn)
		for i := range in {
			in[i] = rng.Float64()
		}
		want, err := s.oracle(in)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: oracle: %w", s.g.Name, err)
		}
		if finite(want) {
			ins, wants = append(ins, in), append(wants, want)
		}
	}
	return ins, wants, nil
}

func newRequest(s *graphSpec, n int, rng *rand.Rand) (request, error) {
	ins, wants, err := vectors(s, n, rng)
	if err != nil {
		return request{}, err
	}
	body, err := json.Marshal(struct {
		Graph  string      `json:"graph"`
		Inputs [][]float64 `json:"inputs"`
	}{s.text, ins})
	if err != nil {
		return request{}, err
	}
	return request{graph: s, inputs: ins, want: wants, body: body}, nil
}

// reweight returns a copy of g with every constant redrawn from rng. In
// a generated circuit the constants are exactly the edge weights; they
// reach the compiled program only as its memory image, never its
// schedule, so a reweighted graph has a new fingerprint but the same
// instruction stream, cycle count and artifact size.
func reweight(g *dag.Graph, rng *rand.Rand) *dag.Graph {
	out := dag.New(g.Name)
	out.Grow(g.NumNodes())
	for i := 0; i < g.NumNodes(); i++ {
		switch n := g.Node(dag.NodeID(i)); n.Op {
		case dag.OpInput:
			out.AddInput()
		case dag.OpConst:
			out.AddConst(0.1 + 0.9*rng.Float64())
		default:
			out.AddOp(n.Op, n.Args...)
		}
	}
	return out
}

// population generates n probabilistic circuits of about `nodes` nodes.
// Their wiring comes from fixed structural seeds (base, base+1, …) and
// only their weights from rng, i.e. from -seed: every seed presents the
// stack with fingerprints it has never seen, while node counts, text
// sizes and compiled cycle counts — the exact-count metrics — do not
// move with the seed, so their bounds can stay tight. A circuit is kept
// only if its reference output at the all-ones input is finite: inputs
// are below one and weights positive, so no request on it can overflow.
func population(name string, n, nodes int, base int64, rng *rand.Rand) ([]*graphSpec, error) {
	var out []*graphSpec
	for k := int64(0); len(out) < n; k++ {
		if k > int64(4*n+16) {
			return nil, fmt.Errorf("%s: cannot generate %d circuits with finite outputs", name, n)
		}
		g := reweight(pc.Generate(pc.Config{
			Name: fmt.Sprintf("%s-%d", name, len(out)), Vars: 8, TargetNodes: nodes,
			TargetDepth: 12, SumFanin: 3, Weighted: true, SkipProb: 0.15, Seed: base + k,
		}), rng)
		s, err := newGraphSpec(g)
		if err != nil {
			return nil, err
		}
		if ref, err := s.oracle(pc.UniformInputs(g, 1)); err != nil || !finite(ref) {
			continue
		}
		out = append(out, s)
	}
	return out, nil
}

// job is one unit of the offline flow: a graph with the input vectors
// the cycle-accurate machine runs it on. A job with a nil graph is the
// design-space sweep over workload.sweep.
type job struct {
	graph  *graphSpec
	inputs [][]float64
	want   [][]float64
}

// workload is one set of generated inputs. Every workload carries both
// a request stream (reqs, cycled in order) and a job list, because the
// traced replay probes every layer on every workload's graphs; which of
// the two the measured phase runs is what distinguishes `toolchain`
// from the three serve workloads.
type workload struct {
	name string
	// serve reports whether the measured phase drives a dpu-serve
	// process (true) or runs jobs in-process (false).
	serve bool
	// store gives the server an -artifact-dir (serve_churn).
	store bool
	reqs  []request
	jobs  []job
	// sweep is the graph of the design-space sweep job: tretail at scale
	// 0.02 on every workload, small enough that 48 compile-and-simulate
	// points cost about as much as one mid-sized compile job.
	sweep *dag.Graph
	// warmup is the fixed warm-up count: requests on a serve workload,
	// whole passes over jobs on toolchain.
	warmup int
	// replayOps is the fixed number of requests the traced replay sends.
	replayOps int
}

// jobVectors is the input-vector count of one job.
const jobVectors = 16

var workloadNames = []string{"serve_hot", "serve_batch", "serve_churn", "toolchain"}

// toolchainGraphs are the twelve Table I graphs of the offline flow.
func toolchainGraphs() []string {
	var names []string
	for _, s := range pc.Suite() {
		names = append(names, s.Name)
	}
	for _, s := range sptrsv.Suite() {
		names = append(names, s.Name)
	}
	return names
}

// servesHTTP reports whether the named workload's measured phase drives
// a dpu-serve process; toolchain alone runs in-process.
func servesHTTP(name string) bool { return name != "toolchain" }

// buildWorkload generates the named workload from seed. The same seed
// gives the same graphs, vectors and request order, byte for byte.
func buildWorkload(name string, seed int64) (*workload, error) {
	idx := -1
	for i, n := range workloadNames {
		if n == name {
			idx = i
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
	}
	rng := rand.New(rand.NewSource(seed*int64(len(workloadNames)) + int64(idx)))
	w := &workload{name: name, serve: servesHTTP(name)}
	var graphs []*graphSpec
	var perGraph, vecs int // requests per graph, vectors per request
	var err error
	switch name {
	case "serve_hot":
		graphs, err = population(name, 4, 64, 100, rng)
		perGraph, vecs, w.warmup, w.replayOps = 64, 1, 2000, 2000
	case "serve_batch":
		graphs, err = suiteGraphs(0.25, "tretail")
		perGraph, vecs, w.warmup, w.replayOps = 8, 256, 300, 200
	case "serve_churn":
		// 512 graphs against a 128-entry LRU: cycled in a fixed order the
		// reuse distance is 4× the cache, so every request is a miss.
		// Warm-up is two full passes (cold compiles, then store reads);
		// the replay adds a third so the store path is its majority.
		graphs, err = population(name, 512, 480, 1000, rng)
		perGraph, vecs, w.warmup, w.replayOps, w.store = 1, 1, 1024, 1536, true
	case "toolchain":
		graphs, err = suiteGraphs(0.1, toolchainGraphs()...)
		perGraph, vecs, w.warmup, w.replayOps = 1, jobVectors, 10, 36
	}
	if err != nil {
		return nil, err
	}
	for _, s := range graphs {
		for i := 0; i < perGraph; i++ {
			r, err := newRequest(s, vecs, rng)
			if err != nil {
				return nil, err
			}
			w.reqs = append(w.reqs, r)
		}
	}
	// Jobs reuse the first request of each graph (at most jobVectors of
	// its vectors), over at most 16 graphs: the offline probe of a serve
	// workload samples its population, toolchain runs all twelve.
	for i := 0; i < len(graphs) && i < 16; i++ {
		r := w.reqs[i*perGraph]
		n := min(len(r.inputs), jobVectors)
		w.jobs = append(w.jobs, job{graph: r.graph, inputs: r.inputs[:n], want: r.want[:n]})
	}
	if w.sweep, err = suite.Build("tretail", 0.02); err != nil {
		return nil, err
	}
	w.jobs = append(w.jobs, job{})
	rng.Shuffle(len(w.reqs), func(i, j int) { w.reqs[i], w.reqs[j] = w.reqs[j], w.reqs[i] })
	return w, nil
}

func suiteGraphs(scale float64, names ...string) ([]*graphSpec, error) {
	var out []*graphSpec
	for _, n := range names {
		g, err := suite.Build(n, scale)
		if err != nil {
			return nil, err
		}
		s, err := newGraphSpec(g)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

package dag

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddAndValidate(t *testing.T) {
	g := New("t")
	a := g.AddInput()
	b := g.AddInput()
	c := g.AddConst(2.5)
	s := g.AddOp(OpAdd, a, b)
	p := g.AddOp(OpMul, s, c)
	if g.NumNodes() != 5 {
		t.Fatalf("NumNodes = %d, want 5", g.NumNodes())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := g.Op(p); got != OpMul {
		t.Errorf("Op(p) = %v, want mul", got)
	}
	if got := g.Args(p); len(got) != 2 || got[0] != s || got[1] != c {
		t.Errorf("Args(p) = %v", got)
	}
}

func TestValidateEmpty(t *testing.T) {
	if err := New("e").Validate(); err == nil {
		t.Fatal("Validate on empty graph should fail")
	}
}

func TestAddOpPanicsOnForwardRef(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on forward reference")
		}
	}()
	g := New("t")
	g.AddInput()
	g.AddOp(OpAdd, 0, 5)
}

func TestAddOpPanicsOnLeafOp(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on AddOp(OpInput)")
		}
	}()
	g := New("t")
	g.AddInput()
	g.AddOp(OpInput, 0)
}

func TestSuccsAndFanout(t *testing.T) {
	g := New("t")
	a := g.AddInput()
	b := g.AddInput()
	s := g.AddOp(OpAdd, a, b)
	g.AddOp(OpMul, s, a)
	g.AddOp(OpMul, s, b)
	if f := g.Fanout(s); f != 2 {
		t.Errorf("Fanout(s) = %d, want 2", f)
	}
	if f := g.Fanout(a); f != 2 {
		t.Errorf("Fanout(a) = %d, want 2", f)
	}
	if got := len(g.Outputs()); got != 2 {
		t.Errorf("Outputs = %d, want 2", got)
	}
}

func TestSuccsInvalidatedOnMutation(t *testing.T) {
	g := New("t")
	a := g.AddInput()
	b := g.AddInput()
	s := g.AddOp(OpAdd, a, b)
	if g.Fanout(s) != 0 {
		t.Fatal("fresh node should have fanout 0")
	}
	g.AddOp(OpMul, s, s)
	if g.Fanout(s) != 2 {
		t.Fatal("fanout should reflect the new consumer twice")
	}
}

func TestEvalSimple(t *testing.T) {
	g := New("t")
	a := g.AddInput()
	b := g.AddInput()
	c := g.AddConst(3)
	s := g.AddOp(OpAdd, a, b)
	g.AddOp(OpMul, s, c)
	vals, err := Eval(g, []float64{2, 5})
	if err != nil {
		t.Fatal(err)
	}
	if vals[len(vals)-1] != 21 {
		t.Fatalf("eval = %v, want 21", vals[len(vals)-1])
	}
	if _, err := Eval(g, []float64{1}); err == nil {
		t.Error("expected error on too few inputs")
	}
	if _, err := Eval(g, []float64{1, 2, 3}); err == nil {
		t.Error("expected error on too many inputs")
	}
}

func TestEvalOutputs(t *testing.T) {
	g := New("t")
	a := g.AddInput()
	b := g.AddInput()
	g.AddOp(OpAdd, a, b)
	g.AddOp(OpMul, a, b)
	outs, err := EvalOutputs(g, []float64{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 2 || outs[0] != 7 || outs[1] != 12 {
		t.Fatalf("outputs = %v, want [7 12]", outs)
	}
}

func TestBinarizeExpandsWideNodes(t *testing.T) {
	g := New("t")
	var ins []NodeID
	for i := 0; i < 7; i++ {
		ins = append(ins, g.AddInput())
	}
	g.AddOp(OpAdd, ins...)
	bg, remap := Binarize(g)
	if !bg.IsBinary() {
		t.Fatal("binarized graph is not binary")
	}
	if err := bg.Validate(); err != nil {
		t.Fatal(err)
	}
	in := []float64{1, 2, 3, 4, 5, 6, 7}
	want, _ := Eval(g, in)
	got, _ := Eval(bg, in)
	if got[remap[len(want)-1]] != want[len(want)-1] {
		t.Fatalf("binarize changed value: got %v want %v", got[remap[len(want)-1]], want[len(want)-1])
	}
}

func TestBinarizeUnaryNode(t *testing.T) {
	g := New("t")
	a := g.AddInput()
	g.AddOp(OpAdd, a)
	g.AddOp(OpMul, 1)
	bg, remap := Binarize(g)
	if !bg.IsBinary() {
		t.Fatal("not binary")
	}
	got, err := Eval(bg, []float64{5})
	if err != nil {
		t.Fatal(err)
	}
	if got[remap[2]] != 5 {
		t.Fatalf("unary widen changed value: %v", got[remap[2]])
	}
}

// TestBinarizeUnaryWideningIsExact: the neutral constant a 1-ary node
// is widened with must leave every value bit for bit, signed zeros,
// infinities, NaN and subnormals included — the widened graph is what
// the server evaluates, and the client's graph is the reference. An add
// widened with +0 turns −0 into +0.
func TestBinarizeUnaryWideningIsExact(t *testing.T) {
	for _, op := range []Op{OpAdd, OpMul} {
		g := New("unary")
		g.AddOp(op, g.AddInput())
		bg, remap := Binarize(g)
		for _, x := range []float64{math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, -5e-324, 1.5} {
			want, err := Eval(g, []float64{x})
			if err != nil {
				t.Fatal(err)
			}
			got, err := Eval(bg, []float64{x})
			if err != nil {
				t.Fatal(err)
			}
			w, b := want[1], got[remap[1]]
			if math.Float64bits(w) != math.Float64bits(b) && !(math.IsNaN(w) && math.IsNaN(b)) {
				t.Errorf("unary %v at %v: binarized %v (%#x), original %v (%#x)",
					op, x, b, math.Float64bits(b), w, math.Float64bits(w))
			}
		}
	}
}

// checkBinarized checks Binarize's structural contract for g: bg is
// binary and valid, remap covers g, g's sinks map onto bg's sinks in
// order, and a graph that was already binary comes back node for node
// identical. Values are not compared: a k-ary node's association order
// changes.
func checkBinarized(g, bg *Graph, remap []NodeID) error {
	if !bg.IsBinary() {
		return errors.New("binarized graph is not binary")
	}
	if err := bg.Validate(); err != nil {
		return err
	}
	if len(remap) != g.NumNodes() {
		return fmt.Errorf("remap has %d entries for %d nodes", len(remap), g.NumNodes())
	}
	orig, sinks := g.Outputs(), bg.Outputs()
	if len(orig) != len(sinks) {
		return fmt.Errorf("%d sinks became %d", len(orig), len(sinks))
	}
	for j, o := range orig {
		if remap[o] != sinks[j] {
			return fmt.Errorf("sink %d (node %d) maps to %d, binarized sink %d is %d", j, o, remap[o], j, sinks[j])
		}
	}
	if g.IsBinary() {
		if bg.NumNodes() != g.NumNodes() || bg.Fingerprint() != g.Fingerprint() {
			return errors.New("an already-binary graph changed")
		}
		for i, id := range remap {
			if id != NodeID(i) {
				return fmt.Errorf("already-binary graph: remap[%d] = %d", i, id)
			}
		}
	}
	return nil
}

// TestBinarizeKeepsSinkOrder: on multi-sink graphs mixing unary, binary
// and k-ary nodes, repeated arguments and constants, the binarized sinks
// are the remapped original sinks in the same order — the property that
// lets the serving path return outputs without reordering them.
func TestBinarizeKeepsSinkOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for iter := 0; iter < 500; iter++ {
		g := New("mixed")
		for i := 0; i < 1+rng.Intn(4); i++ {
			g.AddInput()
		}
		if rng.Intn(2) == 0 {
			g.AddConst(rng.Float64())
		}
		lo, hi := 1, 4 // arity range: mixed, all unary or all binary
		switch rng.Intn(4) {
		case 0:
			hi = 1
		case 1:
			lo, hi = 2, 2
		}
		for i := 0; i < 1+rng.Intn(30); i++ {
			args := make([]NodeID, lo+rng.Intn(hi-lo+1))
			for j := range args {
				args[j] = NodeID(rng.Intn(g.NumNodes()))
			}
			op := OpAdd
			if rng.Intn(2) == 0 {
				op = OpMul
			}
			g.AddOp(op, args...)
		}
		bg, remap := Binarize(g)
		if err := checkBinarized(g, bg, remap); err != nil {
			t.Fatalf("graph %d: %v", iter, err)
		}
	}
}

func TestBinarizePreservesLeafValues(t *testing.T) {
	g := New("t")
	c := g.AddConst(4.25)
	a := g.AddInput()
	g.AddOp(OpMul, c, a)
	bg, remap := Binarize(g)
	if bg.Node(remap[c]).Val != 4.25 {
		t.Fatal("const value lost")
	}
	got, _ := Eval(bg, []float64{2})
	if got[remap[2]] != 8.5 {
		t.Fatalf("got %v want 8.5", got[remap[2]])
	}
}

func TestComputeStats(t *testing.T) {
	g := New("t")
	a := g.AddInput()
	b := g.AddInput()
	s := g.AddOp(OpAdd, a, b) // depth 2
	m := g.AddOp(OpMul, s, a) // depth 3
	g.AddOp(OpAdd, m, s)      // depth 4
	st := ComputeStats(g)
	if st.Nodes != 5 || st.Interior != 3 || st.Inputs != 2 {
		t.Fatalf("stats counts wrong: %+v", st)
	}
	if st.LongestPath != 4 {
		t.Fatalf("LongestPath = %d, want 4", st.LongestPath)
	}
	if math.Abs(st.AvgParallel-5.0/4.0) > 1e-12 {
		t.Fatalf("AvgParallel = %v", st.AvgParallel)
	}
	if st.MaxFanout != 2 {
		t.Fatalf("MaxFanout = %d, want 2", st.MaxFanout)
	}
}

func TestLevelsPartition(t *testing.T) {
	g := RandomGraph(RandomConfig{Inputs: 20, Interior: 200, MaxArgs: 4, MulFrac: 0.5, Seed: 7})
	levels := Levels(g)
	seen := make(map[NodeID]bool)
	depth := Depths(g)
	for li, lvl := range levels {
		for _, n := range lvl {
			if seen[n] {
				t.Fatalf("node %d appears twice", n)
			}
			seen[n] = true
			if int(depth[n]) != li+1 {
				t.Fatalf("node %d depth %d in level %d", n, depth[n], li+1)
			}
			// No node may depend on a node in the same or later level.
			for _, a := range g.Args(n) {
				if depth[a] >= depth[n] {
					t.Fatalf("node %d arg %d violates level order", n, a)
				}
			}
		}
	}
	if len(seen) != g.NumNodes() {
		t.Fatalf("levels cover %d of %d nodes", len(seen), g.NumNodes())
	}
}

func TestDFSOrderIsPermutation(t *testing.T) {
	g := RandomGraph(RandomConfig{Inputs: 10, Interior: 100, MaxArgs: 3, Seed: 3})
	order := DFSOrder(g)
	seen := make([]bool, len(order))
	for _, o := range order {
		if o < 0 || int(o) >= len(order) || seen[o] {
			t.Fatalf("DFSOrder not a permutation: %v", order)
		}
		seen[o] = true
	}
}

// Property: every randomly generated graph validates, is acyclic by id
// order, and binarization preserves the sink value.
func TestRandomGraphProperties(t *testing.T) {
	f := func(seed int64, nIn8, nOp8 uint8, mulFrac float64) bool {
		cfg := RandomConfig{
			Inputs:   1 + int(nIn8%32),
			Interior: 1 + int(nOp8),
			MaxArgs:  2 + int(seed%4+3)%4,
			MulFrac:  math.Mod(math.Abs(mulFrac), 1),
			Seed:     seed,
		}
		g := RandomGraph(cfg)
		if g.Validate() != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		in := make([]float64, len(g.Inputs()))
		for i := range in {
			in[i] = rng.Float64()*2 - 1
		}
		want, err := Eval(g, in)
		if err != nil {
			return false
		}
		bg, remap := Binarize(g)
		if !bg.IsBinary() || bg.Validate() != nil {
			return false
		}
		got, err := Eval(bg, in)
		if err != nil {
			return false
		}
		sink := NodeID(g.NumNodes() - 1)
		diff := math.Abs(got[remap[sink]] - want[sink])
		tol := 1e-9 * (1 + math.Abs(want[sink]))
		return diff <= tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomGraphWindowControlsDepth(t *testing.T) {
	deep := RandomGraph(RandomConfig{Inputs: 4, Interior: 3000, MaxArgs: 2, Window: 4, Seed: 1})
	wide := RandomGraph(RandomConfig{Inputs: 512, Interior: 3000, MaxArgs: 2, Window: 0, Seed: 1})
	sd, sw := ComputeStats(deep), ComputeStats(wide)
	if sd.LongestPath <= sw.LongestPath {
		t.Fatalf("window should deepen graph: deep=%d wide=%d", sd.LongestPath, sw.LongestPath)
	}
}

func TestOpString(t *testing.T) {
	cases := map[Op]string{OpInput: "input", OpConst: "const", OpAdd: "add", OpMul: "mul", Op(9): "op(9)"}
	for op, want := range cases {
		if op.String() != want {
			t.Errorf("%d.String() = %q, want %q", op, op.String(), want)
		}
	}
}

package sptrsv

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dpuv2/internal/dag"
)

func generators() map[string]*CSR {
	return map[string]*CSR{
		"band":    Band(200, 8, 3, 1),
		"mesh2d":  Mesh2D(16, 12, 2),
		"leveled": Leveled(300, 40, 2, 3),
	}
}

func TestGeneratorsValidate(t *testing.T) {
	for name, m := range generators() {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestSolveInvertsMulVec(t *testing.T) {
	for name, m := range generators() {
		rng := rand.New(rand.NewSource(7))
		x := make([]float64, m.N)
		for i := range x {
			x[i] = rng.Float64()*2 - 1
		}
		b := m.MulVec(x)
		got, err := m.Solve(b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range x {
			if math.Abs(got[i]-x[i]) > 1e-8*(1+math.Abs(x[i])) {
				t.Fatalf("%s: x[%d] = %v, want %v", name, i, got[i], x[i])
			}
		}
	}
}

func TestSolveRejectsBadRHS(t *testing.T) {
	m := Band(10, 2, 1, 1)
	if _, err := m.Solve(make([]float64, 9)); err == nil {
		t.Fatal("expected length error")
	}
}

func TestLowerMatchesSolve(t *testing.T) {
	for name, m := range generators() {
		g, xs := Lower(m)
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rng := rand.New(rand.NewSource(13))
		b := make([]float64, m.N)
		for i := range b {
			b[i] = rng.Float64()*4 - 2
		}
		want, err := m.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		vals, err := dag.Eval(g, b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, id := range xs {
			if math.Abs(vals[id]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
				t.Fatalf("%s: x[%d] = %v via DAG, %v via solve", name, i, vals[id], want[i])
			}
		}
	}
}

func TestLowerAllExposesEveryComponent(t *testing.T) {
	m := Mesh2D(10, 8, 3)
	g, xs := LowerAll(m)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		if g.Fanout(x) != 0 {
			t.Fatalf("x[%d] is not observable (fanout %d)", i, g.Fanout(x))
		}
	}
	rng := rand.New(rand.NewSource(4))
	b := make([]float64, m.N)
	for i := range b {
		b[i] = rng.Float64()
	}
	want, _ := m.Solve(b)
	vals, err := dag.Eval(g, b)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		if math.Abs(vals[x]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("x[%d] = %v, want %v", i, vals[x], want[i])
		}
	}
}

func TestLowerOpsAreAddMulOnly(t *testing.T) {
	m := Mesh2D(8, 8, 5)
	g, _ := Lower(m)
	for i := 0; i < g.NumNodes(); i++ {
		switch g.Op(dag.NodeID(i)) {
		case dag.OpInput, dag.OpConst, dag.OpAdd, dag.OpMul:
		default:
			t.Fatalf("node %d has op %v", i, g.Op(dag.NodeID(i)))
		}
	}
}

func TestLeveledDepthControl(t *testing.T) {
	shallow := Leveled(1000, 10, 2, 1)
	deep := Leveled(1000, 200, 2, 1)
	gs, _ := Lower(shallow)
	gd, _ := Lower(deep)
	ss, sd := dag.ComputeStats(gs), dag.ComputeStats(gd)
	if sd.LongestPath <= ss.LongestPath {
		t.Fatalf("more levels should be deeper: %d vs %d", sd.LongestPath, ss.LongestPath)
	}
}

func TestSuiteTargets(t *testing.T) {
	for _, spec := range Suite() {
		g, m := Build(spec, 1.0)
		if err := m.Validate(); err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		st := dag.ComputeStats(g)
		lo, hi := int(0.5*float64(spec.TargetNodes)), int(1.6*float64(spec.TargetNodes))
		if st.Nodes < lo || st.Nodes > hi {
			t.Errorf("%s: nodes = %d, want within [%d,%d]", spec.Name, st.Nodes, lo, hi)
		}
		if st.LongestPath < spec.TargetDepth/2 || st.LongestPath > spec.TargetDepth*2 {
			t.Errorf("%s: depth = %d, target %d", spec.Name, st.LongestPath, spec.TargetDepth)
		}
	}
}

func TestValidateCatchesUpperTriangular(t *testing.T) {
	m := &CSR{N: 2, RowPtr: []int32{0, 2, 3}, Col: []int32{0, 1, 1}, Val: []float64{1, 1, 1}}
	if err := m.Validate(); err == nil {
		t.Fatal("expected error for above-diagonal entry")
	}
}

func TestValidateCatchesMissingDiagonal(t *testing.T) {
	m := &CSR{N: 2, RowPtr: []int32{0, 1, 2}, Col: []int32{0, 0}, Val: []float64{1, 1}}
	if err := m.Validate(); err == nil {
		t.Fatal("expected error for missing diagonal")
	}
}

// Property: Lower∘Solve agreement holds across random leveled matrices.
func TestLowerSolveProperty(t *testing.T) {
	f := func(seed int64, n8, lv8 uint8) bool {
		n := 20 + int(n8)
		levels := 2 + int(lv8)%30
		m := Leveled(n, levels, 2, seed)
		if m.Validate() != nil {
			return false
		}
		g, xs := Lower(m)
		rng := rand.New(rand.NewSource(seed ^ 99))
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.Float64()*2 - 1
		}
		want, err := m.Solve(b)
		if err != nil {
			return false
		}
		vals, err := dag.Eval(g, b)
		if err != nil {
			return false
		}
		for i, id := range xs {
			if math.Abs(vals[id]-want[i]) > 1e-8*(1+math.Abs(want[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// MulVec computes y = L·x, to verify Solve/DAG round trips.
func (m *CSR) MulVec(x []float64) []float64 {
	y := make([]float64, m.N)
	for i := 0; i < m.N; i++ {
		var acc float64
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			acc += m.Val[k] * x[m.Col[k]]
		}
		y[i] = acc
	}
	return y
}

// Band generates an n×n lower-triangular banded matrix: each row has the
// diagonal plus up to fill off-diagonals drawn from the preceding
// bandwidth columns. Band patterns give long dependency chains, like the
// dw2048 matrix in the paper's suite.
func Band(n, bandwidth, fill int, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]builderRow, n)
	for i := 0; i < n; i++ {
		seen := map[int32]bool{}
		for k := 0; k < fill && i > 0; k++ {
			lo := i - bandwidth
			if lo < 0 {
				lo = 0
			}
			c := int32(lo + rng.Intn(i-lo))
			if !seen[c] {
				seen[c] = true
				rows[i].cols = append(rows[i].cols, c)
				rows[i].vals = append(rows[i].vals, randVal(rng))
			}
		}
		// Diagonal dominant enough to keep the solve well conditioned.
		rows[i].cols = append(rows[i].cols, int32(i))
		rows[i].vals = append(rows[i].vals, 2+rng.Float64())
	}
	return buildCSR(rows)
}

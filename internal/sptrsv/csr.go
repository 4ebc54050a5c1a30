// Package sptrsv provides sparse-matrix triangular-solve workloads: a
// compressed-sparse-row matrix type, synthetic sparsity-pattern
// generators standing in for the SuiteSparse matrices of Table I(b), a
// dense reference solver, and the lowering of a forward substitution into
// a {+,×}-only DAG executable by DPU-v2.
package sptrsv

import (
	"fmt"
	"math/rand"
	"sort"
)

// CSR is a square sparse matrix in compressed-sparse-row form. For
// triangular solves the matrix must be lower triangular with a nonzero
// diagonal; LowerTriangular generators guarantee that and Validate checks
// it.
type CSR struct {
	N      int
	RowPtr []int32 // length N+1
	Col    []int32 // length nnz, ascending within each row
	Val    []float64
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Col) }

// Validate checks CSR structural invariants plus lower-triangularity with
// a nonzero diagonal as the last entry of every row.
func (m *CSR) Validate() error {
	if m.N < 1 {
		return fmt.Errorf("sptrsv: empty matrix")
	}
	if len(m.RowPtr) != m.N+1 {
		return fmt.Errorf("sptrsv: RowPtr length %d, want %d", len(m.RowPtr), m.N+1)
	}
	if m.RowPtr[0] != 0 || int(m.RowPtr[m.N]) != len(m.Col) || len(m.Col) != len(m.Val) {
		return fmt.Errorf("sptrsv: inconsistent RowPtr/Col/Val")
	}
	for i := 0; i < m.N; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		if lo > hi {
			return fmt.Errorf("sptrsv: row %d has negative extent", i)
		}
		if lo == hi {
			return fmt.Errorf("sptrsv: row %d empty (zero diagonal)", i)
		}
		for k := lo; k < hi; k++ {
			c := m.Col[k]
			if c < 0 || int(c) > i {
				return fmt.Errorf("sptrsv: entry (%d,%d) above diagonal", i, c)
			}
			if k > lo && c <= m.Col[k-1] {
				return fmt.Errorf("sptrsv: row %d columns not ascending", i)
			}
		}
		if int(m.Col[hi-1]) != i {
			return fmt.Errorf("sptrsv: row %d missing diagonal", i)
		}
		if m.Val[hi-1] == 0 {
			return fmt.Errorf("sptrsv: row %d zero diagonal value", i)
		}
	}
	return nil
}

// Solve performs the reference forward substitution L·x = b and returns x.
func (m *CSR) Solve(b []float64) ([]float64, error) {
	if len(b) != m.N {
		return nil, fmt.Errorf("sptrsv: rhs length %d, want %d", len(b), m.N)
	}
	x := make([]float64, m.N)
	for i := 0; i < m.N; i++ {
		acc := b[i]
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		for k := lo; k < hi-1; k++ {
			acc -= m.Val[k] * x[m.Col[k]]
		}
		x[i] = acc / m.Val[hi-1]
	}
	return x, nil
}

// FootprintBytes returns the memory footprint of the CSR structure with
// 4-byte indices and 4-byte values, the conventional layout the paper
// compares its instruction stream against in §IV-E.
func (m *CSR) FootprintBytes() int {
	return 4*len(m.RowPtr) + 4*len(m.Col) + 4*len(m.Val)
}

type builderRow struct {
	cols []int32
	vals []float64
}

// buildCSR assembles rows (each already containing the diagonal) into CSR
// form, sorting columns ascending.
func buildCSR(rows []builderRow) *CSR {
	m := &CSR{N: len(rows), RowPtr: make([]int32, len(rows)+1)}
	for i := range rows {
		r := &rows[i]
		idx := make([]int, len(r.cols))
		for j := range idx {
			idx[j] = j
		}
		sort.Slice(idx, func(a, b int) bool { return r.cols[idx[a]] < r.cols[idx[b]] })
		for _, j := range idx {
			m.Col = append(m.Col, r.cols[j])
			m.Val = append(m.Val, r.vals[j])
		}
		m.RowPtr[i+1] = int32(len(m.Col))
	}
	return m
}

func randVal(rng *rand.Rand) float64 {
	v := 0.1 + 0.9*rng.Float64()
	if rng.Intn(2) == 0 {
		v = -v
	}
	return v
}

// Mesh2D generates the lower factor sparsity of a 5-point finite
// difference stencil on an nx×ny grid (entries at (i,i−1) and (i,i−nx)),
// resembling the jagmesh-style matrices of the suite.
func Mesh2D(nx, ny int, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	n := nx * ny
	rows := make([]builderRow, n)
	for i := 0; i < n; i++ {
		if i%nx != 0 {
			rows[i].cols = append(rows[i].cols, int32(i-1))
			rows[i].vals = append(rows[i].vals, randVal(rng))
		}
		if i >= nx {
			rows[i].cols = append(rows[i].cols, int32(i-nx))
			rows[i].vals = append(rows[i].vals, randVal(rng))
		}
		rows[i].cols = append(rows[i].cols, int32(i))
		rows[i].vals = append(rows[i].vals, 4+rng.Float64())
	}
	return buildCSR(rows)
}

// Leveled generates a lower-triangular matrix with an explicit level
// structure: rows are split into nLevels groups and each row in level k
// depends on deps random rows from earlier levels (biased to level k−1).
// This gives direct control over the dependency-chain length, which is
// how the synthetic suite matches the longest-path column of Table I(b).
func Leveled(n, nLevels, deps int, seed int64) *CSR {
	if nLevels < 1 {
		nLevels = 1
	}
	if nLevels > n {
		nLevels = n
	}
	rng := rand.New(rand.NewSource(seed))
	rows := make([]builderRow, n)
	perLevel := n / nLevels
	if perLevel < 1 {
		perLevel = 1
	}
	levelOf := func(i int) int {
		l := i / perLevel
		if l >= nLevels {
			l = nLevels - 1
		}
		return l
	}
	for i := 0; i < n; i++ {
		l := levelOf(i)
		seen := map[int32]bool{}
		if l > 0 {
			// One guaranteed dependency on the previous level keeps the
			// critical path at exactly nLevels rows.
			lo, hi := (l-1)*perLevel, l*perLevel
			c := int32(lo + rng.Intn(hi-lo))
			seen[c] = true
			rows[i].cols = append(rows[i].cols, c)
			rows[i].vals = append(rows[i].vals, randVal(rng))
			for k := 1; k < deps; k++ {
				// Real matrices are strongly banded: extra dependencies
				// come from a recent window of rows, not uniformly from
				// the whole history.
				win := 4 * perLevel
				if win > hi {
					win = hi
				}
				c := int32(hi - 1 - rng.Intn(win))
				if !seen[c] {
					seen[c] = true
					rows[i].cols = append(rows[i].cols, c)
					rows[i].vals = append(rows[i].vals, randVal(rng))
				}
			}
		}
		rows[i].cols = append(rows[i].cols, int32(i))
		rows[i].vals = append(rows[i].vals, 2+rng.Float64())
	}
	return buildCSR(rows)
}

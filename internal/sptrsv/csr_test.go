package sptrsv

import "fmt"

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

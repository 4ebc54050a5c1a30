package compiler

import (
	"fmt"
	"math/bits"
	"math/rand"

	"dpuv2/internal/arch"
	"dpuv2/internal/dag"
)

// Step 2b — register-bank mapping (§IV-B, algorithm 2).
//
// Every io value (DAG leaves, which enter through vector loads whose lane
// fixes their bank, and block outputs, whose PE fixes the banks it can
// reach) gets a home bank. The allocator keeps a compatible-bank set per
// value, always maps the value with the fewest compatible banks next
// (found in O(B) through the Mnodes bucket structure), picks uniformly
// among compatible banks (objective J: balance), and when no compatible
// bank remains falls back to the least-contended one (objective I:
// minimize conflicts). Each assignment removes the chosen bank from the
// compatible sets of values read or written simultaneously (constraints F
// and G); output values never leave their PE's writable set (constraint
// H is a hard hardware restriction).
//
// Banks are represented as bits of a uint64, which caps B at 64 — the
// largest point of the paper's design space.

type bankAlloc struct {
	bank []int8 // home bank per value, -1 while unassigned
	// writable[id] is the mask of banks PE id can write (constraint H),
	// tabulated once so steps 2b and 2c never list them per output.
	writable []uint64
	// conflict statistics
	fallbacks int
}

// writableMasks tabulates every PE's writable banks as a bit mask.
func writableMasks(cfg arch.Config) []uint64 {
	masks := make([]uint64, cfg.NumPEs())
	for id := range masks {
		p := cfg.PECoord(id)
		for bk := 0; bk < cfg.B; bk++ {
			if cfg.CanWrite(p, bk) {
				masks[id] |= 1 << uint(bk)
			}
		}
	}
	return masks
}

type valConstraints struct {
	compat []uint64 // remaining compatible banks per value
	groups [][]ValID
	member [][]int32 // value -> indexes into groups
}

// allocateBanks is step 2's bank allocation; seed drives its randomized
// tie-breaks (objective J spreads values by choosing uniformly among
// compatible banks) and, with opts.RandomBanks, the placement itself.
func allocateBanks(g *dag.Graph, cfg arch.Config, blocks []*Block, opts Options, seed int64) (*bankAlloc, error) {
	if cfg.B > 64 {
		return nil, fmt.Errorf("compiler: B=%d exceeds the 64-bank allocator limit", cfg.B)
	}
	nv := g.NumNodes()
	allBanks := uint64(1)<<uint(cfg.B) - 1

	vc := &valConstraints{
		compat: make([]uint64, nv),
		member: make([][]int32, nv),
	}
	isIO := make([]bool, nv)

	// Initialize compatible sets.
	for i := 0; i < nv; i++ {
		if g.Op(dag.NodeID(i)).IsLeaf() {
			vc.compat[i] = allBanks
			isIO[i] = true
		}
	}
	hard := make([]uint64, nv) // hardware-writable mask for outputs
	for i := range hard {
		hard[i] = allBanks
	}
	writable := writableMasks(cfg)
	for _, b := range blocks {
		for i, v := range b.Outputs {
			m := writable[cfg.PEID(b.OutPE[i])]
			vc.compat[v] = m
			hard[v] = m
			isIO[v] = true
		}
	}

	// Constraint groups: inputs of a block must differ pairwise (F),
	// outputs of a block must differ pairwise (G).
	addGroup := func(vals []ValID) {
		if len(vals) < 2 {
			return
		}
		gi := int32(len(vc.groups))
		vc.groups = append(vc.groups, vals)
		for _, v := range vals {
			vc.member[v] = append(vc.member[v], gi)
		}
	}
	for _, b := range blocks {
		addGroup(b.Inputs)
		addGroup(b.Outputs)
	}

	rng := rand.New(rand.NewSource(seed))
	ba := &bankAlloc{bank: make([]int8, nv), writable: writable}
	for i := range ba.bank {
		ba.bank[i] = -1
	}

	if opts.RandomBanks {
		// Fig. 10(b) baseline: uniform random placement, ignoring F/G
		// but still honouring the hardware-writable sets.
		for i := 0; i < nv; i++ {
			if !isIO[i] {
				continue
			}
			m := hard[i]
			k := rng.Intn(bits.OnesCount64(m))
			ba.bank[i] = int8(nthSetBit(m, k))
		}
		return ba, nil
	}

	// Mnodes buckets keyed by |compat|: every pending value sits in exactly
	// one bucket, an intrusive doubly-linked list threaded through
	// next/prev with the most recent arrival at the head. A value whose
	// compatible set shrinks moves to the head of its new bucket.
	head := make([]ValID, cfg.B+1)
	for c := range head {
		head[c] = InvalidVal
	}
	links := make([]ValID, 2*nv)
	next, prev := links[:nv], links[nv:]
	enter := func(v ValID) {
		c := bits.OnesCount64(vc.compat[v])
		next[v], prev[v] = head[c], InvalidVal
		if head[c] != InvalidVal {
			prev[head[c]] = v
		}
		head[c] = v
	}
	leave := func(v ValID) {
		if prev[v] != InvalidVal {
			next[prev[v]] = next[v]
		} else {
			head[bits.OnesCount64(vc.compat[v])] = next[v]
		}
		if next[v] != InvalidVal {
			prev[next[v]] = prev[v]
		}
	}
	pending := 0
	for i := 0; i < nv; i++ {
		if isIO[i] {
			enter(ValID(i))
			pending++
		}
	}

	contention := make([]int, cfg.B) // fallback scratch
	for ; pending > 0; pending-- {
		// The most constrained value: head of the lowest non-empty bucket.
		var v ValID = InvalidVal
		for c := 0; c <= cfg.B && v == InvalidVal; c++ {
			v = head[c]
		}
		if v == InvalidVal {
			return nil, fmt.Errorf("compiler: bank allocator buckets drained with %d values pending", pending)
		}
		leave(v)

		var chosen int
		if m := vc.compat[v]; m != 0 {
			chosen = nthSetBit(m, rng.Intn(bits.OnesCount64(m)))
		} else {
			// No conflict-free bank remains: pick the least-contended
			// hardware-legal bank, measured over this value's groups.
			ba.fallbacks++
			clear(contention)
			for _, gi := range vc.member[v] {
				for _, u := range vc.groups[gi] {
					if u != v && ba.bank[u] >= 0 {
						contention[ba.bank[u]]++
					}
				}
			}
			best, bestC := -1, 1<<30
			for bk := 0; bk < cfg.B; bk++ {
				if hard[v]&(1<<uint(bk)) == 0 {
					continue
				}
				if contention[bk] < bestC {
					best, bestC = bk, contention[bk]
				}
			}
			chosen = best
		}
		ba.bank[v] = int8(chosen)

		// Constraint propagation: remove the bank from partners' sets.
		bit := uint64(1) << uint(chosen)
		for _, gi := range vc.member[v] {
			for _, u := range vc.groups[gi] {
				if u == v || ba.bank[u] >= 0 || vc.compat[u]&bit == 0 {
					continue
				}
				leave(u)
				vc.compat[u] &^= bit
				enter(u)
			}
		}
	}
	return ba, nil
}

// nthSetBit returns the position of the k-th (0-based) set bit of m.
func nthSetBit(m uint64, k int) int {
	for i := 0; i < k; i++ {
		m &= m - 1
	}
	return bits.TrailingZeros64(m)
}

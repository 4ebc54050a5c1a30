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

	// The allocator's working arrays, reused by the next allocate:
	// compatible and hardware-writable banks and io flag per value, the
	// constraint groups, each value's groups in CSR form (value v's are
	// members[memberOff[v]:memberOff[v+1]]), the Mnodes buckets, and the
	// tie-breaking generator.
	compat, hard []uint64
	isIO         []bool
	groups       [][]ValID
	memberOff    []int32
	members      []int32
	head, links  []ValID
	contention   []int
	rng          *rand.Rand
}

// writableMasks tabulates every PE's writable banks as a bit mask into
// dst's array when it is large enough.
func writableMasks(dst []uint64, cfg arch.Config) []uint64 {
	masks := resize(dst, cfg.NumPEs())
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

// allocate is step 2's bank allocation, into ba.bank, reusing ba's
// arrays; seed drives its randomized tie-breaks (objective J spreads
// values by choosing uniformly among compatible banks) and, with
// opts.RandomBanks, the placement itself.
func (ba *bankAlloc) allocate(g *dag.Graph, cfg arch.Config, blocks []*Block, opts Options, seed int64) error {
	if cfg.B > 64 {
		return fmt.Errorf("compiler: B=%d exceeds the 64-bank allocator limit", cfg.B)
	}
	nv := g.NumNodes()
	allBanks := uint64(1)<<uint(cfg.B) - 1

	ba.compat = resize(ba.compat, nv)
	ba.isIO = resize(ba.isIO, nv)
	compat, isIO := ba.compat, ba.isIO

	// Initialize compatible sets.
	for i := 0; i < nv; i++ {
		if g.Op(dag.NodeID(i)).IsLeaf() {
			compat[i] = allBanks
			isIO[i] = true
		}
	}
	ba.hard = resize(ba.hard, nv) // hardware-writable mask for outputs
	hard := ba.hard
	for i := range hard {
		hard[i] = allBanks
	}
	ba.writable = writableMasks(ba.writable, cfg)
	writable := ba.writable
	for _, b := range blocks {
		for i, v := range b.Outputs {
			m := writable[cfg.PEID(b.OutPE[i])]
			compat[v] = m
			hard[v] = m
			isIO[v] = true
		}
	}

	// Constraint groups: inputs of a block must differ pairwise (F),
	// outputs of a block must differ pairwise (G).
	groups := ba.groups[:0]
	for _, b := range blocks {
		for _, vals := range [2][]ValID{b.Inputs, b.Outputs} {
			if len(vals) >= 2 {
				groups = append(groups, vals)
			}
		}
	}
	ba.groups = groups
	ba.memberOff = resize(ba.memberOff, nv+1)
	off := ba.memberOff
	for _, vals := range groups {
		for _, v := range vals {
			off[v+1]++
		}
	}
	for v := range nv {
		off[v+1] += off[v]
	}
	ba.members = resize(ba.members, int(off[nv]))
	ba.links = resize(ba.links, 2*nv)
	fill := ba.links[:nv] // borrowed as the per-value write cursor
	for gi, vals := range groups {
		for _, v := range vals {
			ba.members[off[v]+int32(fill[v])] = int32(gi)
			fill[v]++
		}
	}
	member := func(v ValID) []int32 { return ba.members[off[v]:off[v+1]] }

	if ba.rng == nil {
		ba.rng = rand.New(rand.NewSource(seed))
	} else {
		ba.rng.Seed(seed)
	}
	rng := ba.rng
	ba.fallbacks = 0
	ba.bank = resize(ba.bank, nv)
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
		return nil
	}

	// Mnodes buckets keyed by |compat|: every pending value sits in exactly
	// one bucket, an intrusive doubly-linked list threaded through
	// next/prev with the most recent arrival at the head. A value whose
	// compatible set shrinks moves to the head of its new bucket.
	ba.head = resize(ba.head, cfg.B+1)
	head := ba.head
	for c := range head {
		head[c] = InvalidVal
	}
	ba.links = resize(ba.links, 2*nv)
	next, prev := ba.links[:nv], ba.links[nv:]
	enter := func(v ValID) {
		c := bits.OnesCount64(compat[v])
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
			head[bits.OnesCount64(compat[v])] = next[v]
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

	ba.contention = resize(ba.contention, cfg.B) // fallback scratch
	contention := ba.contention
	for ; pending > 0; pending-- {
		// The most constrained value: head of the lowest non-empty bucket.
		var v ValID = InvalidVal
		for c := 0; c <= cfg.B && v == InvalidVal; c++ {
			v = head[c]
		}
		if v == InvalidVal {
			return fmt.Errorf("compiler: bank allocator buckets drained with %d values pending", pending)
		}
		leave(v)

		var chosen int
		if m := compat[v]; m != 0 {
			chosen = nthSetBit(m, rng.Intn(bits.OnesCount64(m)))
		} else {
			// No conflict-free bank remains: pick the least-contended
			// hardware-legal bank, measured over this value's groups.
			ba.fallbacks++
			clear(contention)
			for _, gi := range member(v) {
				for _, u := range groups[gi] {
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
		for _, gi := range member(v) {
			for _, u := range groups[gi] {
				if u == v || ba.bank[u] >= 0 || compat[u]&bit == 0 {
					continue
				}
				leave(u)
				compat[u] &^= bit
				enter(u)
			}
		}
	}
	return nil
}

// nthSetBit returns the position of the k-th (0-based) set bit of m.
func nthSetBit(m uint64, k int) int {
	for i := 0; i < k; i++ {
		m &= m - 1
	}
	return bits.TrailingZeros64(m)
}

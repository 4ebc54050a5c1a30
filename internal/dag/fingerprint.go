package dag

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
)

// Fingerprint is a stable 256-bit content hash of a graph's structure:
// two graphs with the same nodes (ops, argument wiring, constant bit
// patterns) in the same order have the same fingerprint regardless of
// their display Name, and any structural difference changes it. It is
// the cache key of the serving engine's compile cache, so it must be
// stable across processes and hosts (no map iteration, no pointers).
type Fingerprint [32]byte

// String renders the fingerprint as lowercase hex.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// Short returns the first 12 hex digits, enough to label a graph in logs.
func (f Fingerprint) Short() string { return hex.EncodeToString(f[:6]) }

// fingerprintDomain versions the hash layout; bump it if the encoding
// below ever changes so stale persisted keys cannot alias.
const fingerprintDomain = "dpuv2/dag/fingerprint/v1"

// Fingerprint returns the content hash of the graph. The result is
// memoized behind an atomic pointer (like the adjacency cache) and
// invalidated by mutation, so a built graph served many times is hashed
// once; concurrent readers are safe.
func (g *Graph) Fingerprint() Fingerprint {
	if p := g.fp.Load(); p != nil {
		return *p
	}
	var h fingerprinter
	h.begin(len(g.nodes))
	for i := range g.nodes {
		n := &g.nodes[i]
		h.node(n.Op, n.Val, n.Args)
	}
	f := h.sum()
	// Concurrent first callers may hash twice; the results are identical.
	// Return the local value: a racing mutation may have already cleared
	// the memo again, so the pointer must not be re-read.
	g.fp.CompareAndSwap(nil, &f)
	return f
}

// fingerprinter is the one encoder of the Fingerprint layout, shared by
// Graph.Fingerprint and Parsed.Fingerprint: the domain, the node count,
// then per node its op byte and either its constant's bits (const),
// nothing (input), or its argument count and arguments, all little
// endian. It batches the encoding through buf, so the hash sees a few
// large writes instead of one per field.
type fingerprinter struct {
	h   hash.Hash
	buf [512]byte
	n   int
}

func (f *fingerprinter) begin(nodes int) {
	f.h = sha256.New()
	f.n = copy(f.buf[:], fingerprintDomain)
	f.put32(uint32(nodes))
}

func (f *fingerprinter) node(op Op, val float64, args []NodeID) {
	f.room(1)
	f.buf[f.n] = byte(op)
	f.n++
	switch op {
	case OpConst:
		f.room(8)
		binary.LittleEndian.PutUint64(f.buf[f.n:], math.Float64bits(val))
		f.n += 8
	case OpInput:
		// position alone identifies an input
	default:
		f.put32(uint32(len(args)))
		for _, a := range args {
			f.put32(uint32(a))
		}
	}
}

func (f *fingerprinter) put32(v uint32) {
	f.room(4)
	binary.LittleEndian.PutUint32(f.buf[f.n:], v)
	f.n += 4
}

// room flushes buf to the hash unless k more bytes fit.
func (f *fingerprinter) room(k int) {
	if f.n+k > len(f.buf) {
		f.h.Write(f.buf[:f.n])
		f.n = 0
	}
}

func (f *fingerprinter) sum() Fingerprint {
	f.h.Write(f.buf[:f.n])
	var fp Fingerprint
	f.h.Sum(fp[:0])
	return fp
}

// Package regfile is the DPU-v2 micro-timing contract (§II-A, §IV-D),
// implemented once for the compiler, the simulator and the static
// verifier. It has two halves.
//
// File is the register file: a landing write takes the lowest free
// address of its bank (the fig. 5(d) valid-bit priority encoder), writes
// land at fixed latencies with at most one per bank per cycle, and a
// cycle's frees apply before its landings allocate. The compiler
// allocates on it directly. Ports, the per-cycle set of banks a write
// lands on, is the one write-port ring: File books on one, and the
// compiler's step 3 schedules on one of its own.
//
// Walker is the instruction half on top of a File: one instruction
// issues per cycle; reads happen at issue and valid_rst frees after
// them; exec evaluates the PE trees layer by layer; writes land when
// arch.Config.WriteLatency says (issue+D for exec, issue+1 for load and
// copy_4), and the pipeline drains for arch.Config.Drain cycles. The
// machine walks with float64 payloads and fails on the first hazard;
// the verifier walks with the issuing pc as the payload and records
// every hazard; fig. 10(c,d) walks with no payload to trace occupancy.
// Each supplies its differences as a Semantics.
package regfile

import "math/bits"

// File is a banked register file's allocation state plus the landing
// ring of the writes in flight. P is what a landing carries: the
// compiler's value id, or a Walker's payload.
type File[P any] struct {
	regs  int
	words int      // free-bitmap words per bank
	free  []uint64 // bank-major; a set bit is a free address

	occupied []int // valid registers per bank
	inflight []int // writes scheduled but not landed, per bank

	// Writes landing at cycle c wait in ring[c%len(ring)], and ports
	// holds the banks they land on.
	ring  [][]landing[P]
	ports Ports
}

type landing[P any] struct {
	bank int
	p    P
}

// New returns an empty banks×regs file whose writes land at most
// maxLatency cycles after they are scheduled.
func New[P any](banks, regs, maxLatency int) *File[P] {
	f := &File[P]{
		regs:     regs,
		words:    (regs + 63) / 64,
		occupied: make([]int, banks),
		inflight: make([]int, banks),
		ring:     make([][]landing[P], maxLatency+2),
	}
	f.free = make([]uint64, banks*f.words)
	// A slot holds at most one landing per bank: scheduling never
	// allocates.
	backing := make([]landing[P], len(f.ring)*banks)
	for i := range f.ring {
		f.ring[i] = backing[i*banks : i*banks : (i+1)*banks]
	}
	f.Reset()
	return f
}

// Reset empties the file and the ring, reusing every allocation.
func (f *File[P]) Reset() {
	for b := range f.occupied {
		w := f.free[b*f.words : (b+1)*f.words]
		for i := range w {
			w[i] = ^uint64(0)
		}
		if r := f.regs % 64; r != 0 {
			w[len(w)-1] = 1<<r - 1
		}
	}
	clear(f.occupied)
	clear(f.inflight)
	f.ports.Reset(len(f.occupied), len(f.ring)-2)
	for i := range f.ring {
		f.ring[i] = f.ring[i][:0]
	}
}

// Valid reports whether addr of bank holds a live value.
func (f *File[P]) Valid(bank, addr int) bool {
	return f.free[bank*f.words+addr>>6]&(1<<uint(addr&63)) == 0
}

// Free releases addr of bank (a valid_rst). Freeing an address that holds
// no value does nothing.
func (f *File[P]) Free(bank, addr int) {
	i, bit := bank*f.words+addr>>6, uint64(1)<<uint(addr&63)
	if f.free[i]&bit == 0 {
		f.free[i] |= bit
		f.occupied[bank]--
	}
}

// Occupied returns the File's own count of valid registers per bank.
func (f *File[P]) Occupied() []int { return f.occupied }

// InFlight returns the number of writes to bank scheduled but not landed.
func (f *File[P]) InFlight(bank int) int { return f.inflight[bank] }

// Busy reports whether a write to bank already lands at cycle land.
func (f *File[P]) Busy(bank, land int) bool { return f.ports.Busy(bank, land) }

// Schedule queues a write of p to bank, landing at the end of cycle land.
// A bank takes one landing per cycle: if a write already lands on bank
// at land, nothing is queued and Schedule returns that write's payload
// and false.
func (f *File[P]) Schedule(bank, land int, p P) (P, bool) {
	s := land % len(f.ring)
	word, bit := &f.ports.At(land)[bank>>6], uint64(1)<<uint(bank&63)
	if *word&bit != 0 {
		for _, l := range f.ring[s] {
			if l.bank == bank {
				return l.p, false
			}
		}
	}
	*word |= bit
	f.ring[s] = append(f.ring[s], landing[P]{bank, p})
	f.inflight[bank]++
	var zero P
	return zero, true
}

// Land applies the writes landing at the end of cycle, in the order they
// were scheduled: each takes the lowest free address of its bank and is
// then reported to fn, with addr = -1 when the bank was full (the write
// is dropped). Call it after the cycle's frees.
func (f *File[P]) Land(cycle int, fn func(bank, addr int, p P)) {
	s := cycle % len(f.ring)
	for _, l := range f.ring[s] {
		f.inflight[l.bank]--
		addr := f.allocLowestFree(l.bank)
		if addr >= 0 {
			f.occupied[l.bank]++
		}
		fn(l.bank, addr, l.p)
	}
	f.ring[s] = f.ring[s][:0]
	f.ports.Clear(cycle)
}

// Ports is the write-port ring: a bank takes one write per cycle, and
// Ports holds, for each cycle a write can still land in, the set of
// banks a write already lands on. A write issued at cycle t lands at
// t+lat, lat ≤ maxLatency, and the caller clears cycle t once its writes
// have landed; the ring has maxLatency+2 slots, so before that clear it
// can already book the next cycle's longest write, at t+1+maxLatency.
type Ports struct {
	slots, words int      // cycles held; bitset words per cycle
	busy         []uint64 // slot-major bank bitsets
}

// Reset empties p for banks banks and writes landing at most maxLatency
// cycles after they issue, reusing its array when it is large enough.
func (p *Ports) Reset(banks, maxLatency int) {
	p.slots, p.words = maxLatency+2, (banks+63)/64
	n := p.slots * p.words
	if cap(p.busy) < n {
		p.busy = make([]uint64, n)
		return
	}
	p.busy = p.busy[:n]
	clear(p.busy)
}

// At returns the banks a write lands on at cycle land, bank b as bit
// b&63 of word b>>6; a caller may test and set whole words of it.
func (p *Ports) At(land int) []uint64 {
	s := land % p.slots * p.words
	return p.busy[s : s+p.words : s+p.words]
}

// Busy reports whether a write to bank already lands at cycle land.
func (p *Ports) Busy(bank, land int) bool {
	return p.At(land)[bank>>6]&(1<<uint(bank&63)) != 0
}

// Clear empties cycle's set once its writes have landed, so that the
// slot can hold the cycle maxLatency+2 later.
func (p *Ports) Clear(cycle int) { clear(p.At(cycle)) }

// allocLowestFree claims the lowest free address of bank, or returns -1
// when the bank is full.
func (f *File[P]) allocLowestFree(bank int) int {
	w := f.free[bank*f.words : (bank+1)*f.words]
	for i, word := range w {
		if word != 0 {
			t := bits.TrailingZeros64(word)
			w[i] = word &^ (1 << uint(t))
			return i<<6 | t
		}
	}
	return -1
}

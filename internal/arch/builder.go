package arch

import "fmt"

// Builder assembles an instruction stream: the compiler's step 4 emits
// into one and Unpack decodes into one. It owns the instructions and the
// arrays their per-bank, per-PE and per-lane slices are cut from, so an
// instruction costs no allocation of its own. Reset keeps every array,
// so a stream that is built and discarded leaves them to the next.
// Program hands the instruction array itself to the program.
type Builder struct {
	instrs []Instr
	banks  []BankCtl
	mask   []bool
	peOps  []PEOp
	mv     []Move
}

// Reset empties b and makes room for n instructions under cfg, of which
// execs are execs, loads loads and stores full-vector stores, and for
// moves copy_4 and store_4 lanes. The counts only size the arrays: a
// stream that outgrows them still builds.
func (b *Builder) Reset(cfg Config, n, execs, loads, stores, moves int) {
	b.instrs = clearTo(b.instrs, n)
	b.banks = clearTo(b.banks, (execs+stores)*cfg.B)
	b.mask = clearTo(b.mask, loads*cfg.B)
	b.peOps = clearTo(b.peOps, execs*cfg.NumPEs())
	b.mv = clearTo(b.mv, moves)
}

// clearTo returns s emptied, with capacity for at least n elements.
func clearTo[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// carve returns an empty slice with capacity n cut from the arena. A full
// arena is replaced by one twice as large; what was cut before keeps the
// old array.
func carve[T any](arena *[]T, n int) []T {
	a := *arena
	if cap(a)-len(a) < n {
		a = make([]T, 0, max(n, 2*cap(a)))
	}
	*arena = a[:len(a)+n]
	return a[len(a) : len(a) : len(a)+n]
}

// zeroed cuts n zero elements from the arena.
func zeroed[T any](arena *[]T, n int) []T {
	s := carve(arena, n)[:n]
	clear(s)
	return s
}

// Exec returns an exec instruction for cfg with every PE idle and every
// bank control zero.
func (b *Builder) Exec(cfg Config) Instr {
	return Instr{Kind: KindExec, PEOps: zeroed(&b.peOps, cfg.NumPEs()), Banks: zeroed(&b.banks, cfg.B)}
}

// Store returns a full-vector store of memory row row for cfg, no bank
// read.
func (b *Builder) Store(cfg Config, row int) Instr {
	return Instr{Kind: KindStore, MemAddr: row, Banks: zeroed(&b.banks, cfg.B)}
}

// Load returns a vector load of memory row row for cfg, no lane enabled.
func (b *Builder) Load(cfg Config, row int) Instr {
	return Instr{Kind: KindLoad, MemAddr: row, Mask: zeroed(&b.mask, cfg.B)}
}

// Moves returns an empty lane list of a copy_4 or store_4 with room for
// n lanes.
func (b *Builder) Moves(n int) []Move { return carve(&b.mv, n) }

// Append adds in to the end of the stream.
func (b *Builder) Append(in Instr) { b.instrs = append(b.instrs, in) }

// Len returns the number of instructions appended since Reset.
func (b *Builder) Len() int { return len(b.instrs) }

// Program validates every instruction against cfg and returns a program
// of cfg whose instructions are b's. The program takes b's storage: b
// must not be used again.
func (b *Builder) Program(cfg Config) (*Program, error) {
	p := NewProgram(cfg)
	for i := range b.instrs {
		if err := b.instrs[i].Validate(p.Cfg); err != nil {
			return nil, fmt.Errorf("arch: instruction %d: %w", i, err)
		}
	}
	p.Instrs = b.instrs
	return p, nil
}

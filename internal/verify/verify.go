// Package verify statically checks compiled DPU-v2 programs against the
// machine model before anything executes them. It is the trust boundary
// between "the checksum matched" and "this program is legal": a decoded
// artifact from a shared store or the compiler's own output can both be
// proven free of the hazards the simulator treats as fatal — without
// running a single input.
//
// The key property making exact static verification possible is that the
// hardware's write addresses are deterministic functions of the
// instruction stream alone: a landing write takes the lowest free address
// of its bank (the fig. 5(d) valid-bit priority encoder), and writes land
// at fixed latencies (issue+1 for load/copy, issue+D for exec). The
// verifier therefore replays the simulator's micro-timing contract over
// abstract state — per-bank valid bitmaps and a landing ring, no values —
// and every register address, free, and landing conflict resolves exactly
// as it would at run time. A program that verifies clean cannot read an
// uninitialized or freed register, overflow a bank, land two writes on
// one bank in a cycle, consume a dead PE operand, or touch memory out of
// bounds on the machine it was compiled for.
//
// Findings are structured (severity, class, pc, PE, bank) so gates can
// distinguish classes and CLIs can render them. Warnings mark
// suspicious-but-harmless encodings (e.g. a valid_rst bit that frees
// nothing); only errors reject a program.
package verify

import (
	"bytes"
	"fmt"

	"dpuv2/internal/arch"
	"dpuv2/internal/compiler"
	"dpuv2/internal/regfile"
)

// Severity ranks a finding.
type Severity uint8

const (
	// SevWarning marks a suspicious but harmless encoding: the machine
	// executes the program correctly, but the compiler probably did not
	// mean to emit it.
	SevWarning Severity = iota
	// SevError marks a hazard the simulator would fault on (or worse,
	// index out of range on): the program must not reach a machine.
	SevError
)

func (s Severity) String() string {
	if s == SevWarning {
		return "warning"
	}
	return "error"
}

// MarshalJSON renders the severity as its name, for `dpu-vet -json`.
func (s Severity) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON is the inverse, so -json consumers can round-trip
// findings.
func (s *Severity) UnmarshalJSON(b []byte) error {
	if string(b) == `"warning"` {
		*s = SevWarning
	} else {
		*s = SevError
	}
	return nil
}

// Class is the finding taxonomy — one class per way a program can be
// illegal for the machine model (see DESIGN.md "Static verification").
type Class uint8

const (
	// ClassResource is the resource envelope: malformed slice shapes,
	// register indices ≥ R, crossbar/interconnect selects naming
	// nonexistent PEs, opcodes outside the decoded ISA, and bank read
	// ports used twice in one instruction.
	ClassResource Class = iota
	// ClassUninitRead is a def-before-use violation: a read of a register
	// that was never written, or was already freed by a valid_rst — the
	// RAW hazards the compiler must have scheduled away.
	ClassUninitRead
	// ClassBankOverflow is a landing write finding its bank full — the
	// free-list replay ran out of addresses.
	ClassBankOverflow
	// ClassWriteConflict is two writes landing on one bank in the same
	// cycle, a structural hazard the interconnect cannot forward.
	ClassWriteConflict
	// ClassDeadOperand is dataflow illegality inside an exec: a port
	// selecting a bank with no read enable, a PE consuming an idle
	// child's output, or a bank writing back the output of an idle PE.
	ClassDeadOperand
	// ClassMemBounds is a load/store row outside the configured data
	// memory.
	ClassMemBounds
	// ClassMapping covers the compiled program's metadata: remap targets,
	// input words and output words that point outside the graph or the
	// memory image, or sinks whose output word nothing ever writes.
	ClassMapping
	// ClassDeadReset (warning) is a valid_rst bit that frees nothing
	// because its bank is not read in the same instruction.
	ClassDeadReset
	// ClassStatsMismatch is a compiled program whose stored statistics
	// (cycles, instruction, exec and nop counts) disagree with its
	// instruction stream — the engine reports those cycles to clients.
	ClassStatsMismatch
)

func (c Class) String() string {
	switch c {
	case ClassResource:
		return "resource"
	case ClassUninitRead:
		return "uninit-read"
	case ClassBankOverflow:
		return "bank-overflow"
	case ClassWriteConflict:
		return "write-conflict"
	case ClassDeadOperand:
		return "dead-operand"
	case ClassMemBounds:
		return "mem-bounds"
	case ClassMapping:
		return "mapping"
	case ClassDeadReset:
		return "dead-reset"
	case ClassStatsMismatch:
		return "stats-mismatch"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// MarshalJSON renders the class as its name, for `dpu-vet -json`.
func (c Class) MarshalJSON() ([]byte, error) {
	return []byte(`"` + c.String() + `"`), nil
}

// UnmarshalJSON is the inverse, so -json consumers can round-trip
// findings.
func (c *Class) UnmarshalJSON(b []byte) error {
	name := string(bytes.Trim(b, `"`))
	for x := ClassResource; x <= ClassStatsMismatch; x++ {
		if x.String() == name {
			*c = x
			return nil
		}
	}
	return fmt.Errorf("verify: unknown finding class %s", name)
}

// Finding is one verifier result.
type Finding struct {
	Sev   Severity `json:"severity"`
	Class Class    `json:"class"`
	// PC is the instruction index the finding anchors to, -1 for
	// program-level findings (metadata, pipeline drain).
	PC int `json:"pc"`
	// PE is the processing element involved, -1 when not applicable.
	PE int `json:"pe"`
	// Bank is the register bank involved, -1 when not applicable.
	Bank int    `json:"bank"`
	Msg  string `json:"msg"`
}

func (f Finding) String() string {
	loc := "program"
	if f.PC >= 0 {
		loc = fmt.Sprintf("pc %d", f.PC)
	}
	if f.PE >= 0 {
		loc += fmt.Sprintf(" pe %d", f.PE)
	}
	if f.Bank >= 0 {
		loc += fmt.Sprintf(" bank %d", f.Bank)
	}
	return fmt.Sprintf("%s %s (%s): %s", f.Sev, f.Class, loc, f.Msg)
}

// HasErrors reports whether any finding is error-severity — the gate
// predicate: warnings never reject a program.
func HasErrors(fs []Finding) bool {
	for _, f := range fs {
		if f.Sev == SevError {
			return true
		}
	}
	return false
}

// Summary renders a finding list for one-line error messages.
func Summary(fs []Finding) string {
	if len(fs) == 0 {
		return "clean"
	}
	errs := 0
	first := -1
	for i, f := range fs {
		if f.Sev == SevError {
			errs++
			if first < 0 {
				first = i
			}
		}
	}
	if first < 0 {
		return fmt.Sprintf("%d warning(s); first: %s", len(fs), fs[0])
	}
	return fmt.Sprintf("%d error(s), %d warning(s); first: %s", errs, len(fs)-errs, fs[first])
}

// maxFindings bounds the findings reported per program. One root cause
// (e.g. a skipped instruction) can cascade into many downstream reads of
// never-written registers; past the bound, analysis stops with a
// truncation marker so a garbage program cannot make verification
// quadratic.
const maxFindings = 64

// maxStateCells bounds the abstract register-file state (B×R valid
// bits) the verifier will allocate, matching engine.CheckMachineBounds
// (B ≤ 2^10, R ≤ 2^12): a decoded artifact claiming a larger register
// file is rejected before anything is allocated for it.
const maxStateCells = 1 << 22

// Program statically verifies a program against cfg and returns its
// findings (empty = clean). It never executes the program and never
// panics on malformed input: every illegal encoding becomes a finding.
func Program(p *arch.Program, cfg arch.Config) []Finding {
	fs, _ := run(p, cfg)
	return fs
}

// Compiled verifies a compiled program plus its serving metadata: the
// instruction stream (as Program) and the remap/input/output maps the
// engine trusts to route values — a store-decoded artifact passes
// through exactly this before it may serve traffic.
func Compiled(c *compiler.Compiled) []Finding {
	metaf := func(msg string, args ...any) Finding {
		return Finding{Sev: SevError, Class: ClassMapping, PC: -1, PE: -1, Bank: -1, Msg: fmt.Sprintf(msg, args...)}
	}
	if c == nil || c.Prog == nil {
		return []Finding{metaf("no compiled program")}
	}
	fs, a := run(c.Prog, c.Prog.Cfg)
	if c.Graph == nil {
		return append(fs, metaf("compiled program carries no graph"))
	}
	if a == nil {
		return fs // configuration itself was rejected; maps are meaningless
	}
	cfg := a.cfg
	// Loads and Stores count draft operations, not instructions, so only
	// the stream-level counts are comparable.
	st, n := c.Stats, len(c.Prog.Instrs)
	if !a.truncated && (st.Cycles != n+cfg.D+1 || st.Instructions != n || st.Execs != a.execs || st.Nops != a.nops) {
		fs = append(fs, Finding{Sev: SevError, Class: ClassStatsMismatch, PC: -1, PE: -1, Bank: -1, Msg: fmt.Sprintf(
			"stored stats (cycles %d, instructions %d, execs %d, nops %d) disagree with the program (%d, %d, %d, %d)",
			st.Cycles, st.Instructions, st.Execs, st.Nops, n+cfg.D+1, n, a.execs, a.nops)})
	}
	nn := c.Graph.NumNodes()
	for i, id := range c.Remap {
		if int(id) < 0 || int(id) >= nn {
			fs = append(fs, metaf("remap[%d] = %d outside the %d-node graph", i, id, nn))
			break
		}
	}
	if got, want := len(c.InputWord), len(c.Graph.Inputs()); got != want {
		fs = append(fs, metaf("%d input words for %d graph inputs", got, want))
	} else {
		for i, w := range c.InputWord {
			if w >= cfg.DataMemWords { // negative = input consumed by nothing
				fs = append(fs, metaf("input %d mapped to word %d outside the %d-word data memory", i, w, cfg.DataMemWords))
			}
		}
	}
	for _, sink := range c.Graph.Outputs() {
		w, ok := c.OutputWord[sink]
		switch {
		case !ok:
			fs = append(fs, metaf("sink %d has no output word", sink))
		case w < 0 || w >= cfg.DataMemWords:
			fs = append(fs, metaf("sink %d mapped to word %d outside the %d-word data memory", sink, w, cfg.DataMemWords))
		default:
			if _, st := a.stored[w]; !st && w >= len(c.Prog.InitMem) {
				fs = append(fs, metaf("sink %d reads output word %d, which no store instruction writes", sink, w))
			}
		}
	}
	return fs
}

// analyzer is the abstract machine: the simulator's register file and
// pipeline (regfile.File, with the issuing pc as each landing's payload)
// and its exec walk, with the values removed.
type analyzer struct {
	cfg  arch.Config
	wire *arch.Wiring
	rf   *regfile.File[int]
	ever []bool // bank-major B×R: address held a value at least once
	// cycle is the current cycle, and execs/nops the instructions of
	// each kind issued so far, for the Compiled stats check.
	cycle, execs, nops int
	// stored collects the data-memory words written by store/store_4
	// instructions, for the Compiled output-coverage check.
	stored map[int]struct{}

	fs        []Finding
	truncated bool

	portUsed []bool
	readBank []bool
	live     []bool
}

func run(p *arch.Program, cfg arch.Config) ([]Finding, *analyzer) {
	reject := func(class Class, msg string) []Finding {
		return []Finding{{Sev: SevError, Class: class, PC: -1, PE: -1, Bank: -1, Msg: msg}}
	}
	if p == nil {
		return reject(ClassResource, "no program"), nil
	}
	cfg = cfg.Normalize()
	if err := cfg.Validate(); err != nil {
		return reject(ClassResource, err.Error()), nil
	}
	if cfg.B*cfg.R > maxStateCells {
		return reject(ClassResource, fmt.Sprintf("register file %d×%d exceeds the verifiable bound %d cells", cfg.B, cfg.R, maxStateCells)), nil
	}
	a := &analyzer{
		cfg:      cfg,
		wire:     cfg.Wiring(),
		rf:       regfile.New[int](cfg.B, cfg.R, cfg.D),
		ever:     make([]bool, cfg.B*cfg.R),
		stored:   make(map[int]struct{}),
		portUsed: make([]bool, cfg.B),
		readBank: make([]bool, cfg.B),
		live:     make([]bool, cfg.NumPEs()),
	}
	for pc, in := range p.Instrs {
		if a.truncated {
			break
		}
		switch in.Kind {
		case arch.KindExec:
			a.execs++
		case arch.KindNop:
			a.nops++
		}
		if a.structural(pc, in) {
			a.issue(pc, in)
		}
		a.tick()
	}
	// Pipeline drain, as in sim.Machine.Run: writes in flight land.
	for d := 0; d <= cfg.D && !a.truncated; d++ {
		a.tick()
	}
	return a.fs, a
}

func (a *analyzer) report(f Finding) {
	if a.truncated {
		return
	}
	if len(a.fs) >= maxFindings {
		a.fs = append(a.fs, Finding{Sev: SevWarning, Class: f.Class, PC: -1, PE: -1, Bank: -1,
			Msg: fmt.Sprintf("more than %d findings; analysis truncated", maxFindings)})
		a.truncated = true
		return
	}
	a.fs = append(a.fs, f)
}

func (a *analyzer) errorf(class Class, pc, pe, bank int, msg string, args ...any) {
	a.report(Finding{Sev: SevError, Class: class, PC: pc, PE: pe, Bank: bank, Msg: fmt.Sprintf(msg, args...)})
}

func (a *analyzer) warnf(class Class, pc, pe, bank int, msg string, args ...any) {
	a.report(Finding{Sev: SevWarning, Class: class, PC: pc, PE: pe, Bank: bank, Msg: fmt.Sprintf(msg, args...)})
}

// structural is the resource-envelope check — Instr.Validate re-derived
// with per-class findings, plus the bounds Validate misses (a store's
// ReadAddr/ValidRst shape; a crossbar write select past NumPEs, which
// would index the simulator's liveness array out of range). A false
// return means the instruction cannot be interpreted; the caller treats
// it as a nop so the cycle count stays aligned.
func (a *analyzer) structural(pc int, in *arch.Instr) bool {
	cfg := a.cfg
	rows := cfg.DataMemWords / cfg.B
	ok := true
	badRow := func(kind string, row int) {
		a.errorf(ClassMemBounds, pc, -1, -1, "%s row %d outside the %d-row data memory", kind, row, rows)
		ok = false
	}
	switch in.Kind {
	case arch.KindNop:
		return true
	case arch.KindExec:
		if len(in.PEOps) != cfg.NumPEs() || len(in.ReadEn) != cfg.B || len(in.ReadAddr) != cfg.B ||
			len(in.ValidRst) != cfg.B || len(in.InputSel) != cfg.B || len(in.WriteEn) != cfg.B || len(in.WriteSel) != cfg.B {
			a.errorf(ClassResource, pc, -1, -1, "exec slice shapes do not match the configuration")
			return false
		}
		for b := 0; b < cfg.B; b++ {
			if in.ReadEn[b] && int(in.ReadAddr[b]) >= cfg.R {
				a.errorf(ClassResource, pc, -1, b, "read address %d ≥ R=%d", in.ReadAddr[b], cfg.R)
				ok = false
			}
			if int(in.InputSel[b]) >= cfg.B {
				a.errorf(ClassResource, pc, -1, b, "input select %d ≥ B=%d", in.InputSel[b], cfg.B)
				ok = false
			}
			if in.WriteEn[b] {
				if cfg.Output == arch.OutCrossbar && int(in.WriteSel[b]) >= cfg.NumPEs() {
					a.errorf(ClassResource, pc, -1, b, "write select %d names a nonexistent PE (%d PEs)", in.WriteSel[b], cfg.NumPEs())
					ok = false
				} else if p := cfg.SelPE(b, in.WriteSel[b]); !cfg.CanWrite(p, b) {
					a.errorf(ClassResource, pc, -1, b, "write select %d illegal under the %s interconnect", in.WriteSel[b], cfg.Output)
					ok = false
				}
			}
		}
		return ok
	case arch.KindLoad:
		if len(in.Mask) != cfg.B {
			a.errorf(ClassResource, pc, -1, -1, "load mask length %d, want B=%d", len(in.Mask), cfg.B)
			return false
		}
		if in.MemAddr < 0 || in.MemAddr >= rows {
			badRow("load", in.MemAddr)
		}
		return ok
	case arch.KindStore:
		if len(in.ReadEn) != cfg.B || len(in.ReadAddr) != cfg.B || len(in.ValidRst) != cfg.B {
			a.errorf(ClassResource, pc, -1, -1, "store slice shapes do not match the configuration")
			return false
		}
		if in.MemAddr < 0 || in.MemAddr >= rows {
			badRow("store", in.MemAddr)
		}
		for b := 0; b < cfg.B; b++ {
			if in.ReadEn[b] && int(in.ReadAddr[b]) >= cfg.R {
				a.errorf(ClassResource, pc, -1, b, "read address %d ≥ R=%d", in.ReadAddr[b], cfg.R)
				ok = false
			}
		}
		return ok
	case arch.KindCopy, arch.KindStore4:
		if len(in.Moves) == 0 || len(in.Moves) > arch.MaxMoves {
			a.errorf(ClassResource, pc, -1, -1, "%s with %d lanes, want 1..%d", in.Kind, len(in.Moves), arch.MaxMoves)
			return false
		}
		if in.Kind == arch.KindStore4 && (in.MemAddr < 0 || in.MemAddr >= rows) {
			badRow("store_4", in.MemAddr)
		}
		for _, mv := range in.Moves {
			if int(mv.SrcBank) >= cfg.B || int(mv.SrcAddr) >= cfg.R || int(mv.Dst) >= cfg.B {
				a.errorf(ClassResource, pc, -1, int(mv.SrcBank), "%s lane out of range: %+v", in.Kind, mv)
				ok = false
			}
		}
		return ok
	}
	a.errorf(ClassResource, pc, -1, -1, "opcode %d outside the decoded ISA", uint8(in.Kind))
	return false
}

// issue replays one instruction's issue-time effects: reads are
// validated against the valid bitmap, valid_rst frees apply after the
// reads, and writes are scheduled on the landing ring with the
// simulator's latencies. After reporting a hazard the analyzer proceeds
// optimistically (the port stays live, the write still lands) so one
// root cause does not multiply into a finding per downstream consumer.
func (a *analyzer) issue(pc int, in *arch.Instr) {
	cfg := a.cfg
	switch in.Kind {
	case arch.KindExec:
		a.exec(pc, in)
	case arch.KindLoad:
		for lane, en := range in.Mask {
			if en {
				a.write(pc, lane, a.cycle+1)
			}
		}
	case arch.KindStore:
		row := in.MemAddr * cfg.B
		for b, en := range in.ReadEn {
			if !en {
				if in.ValidRst[b] {
					a.warnf(ClassDeadReset, pc, -1, b, "valid_rst frees nothing (bank not read)")
				}
				continue
			}
			addr := int(in.ReadAddr[b])
			a.checkRead(pc, b, addr)
			if in.ValidRst[b] {
				a.rf.Free(b, addr)
			}
			a.stored[row+b] = struct{}{}
		}
	case arch.KindCopy, arch.KindStore4:
		row := in.MemAddr * cfg.B
	lanes:
		for i, mv := range in.Moves {
			for _, prev := range in.Moves[:i] {
				if prev.SrcBank == mv.SrcBank {
					a.errorf(ClassResource, pc, -1, int(mv.SrcBank), "two reads of bank %d in one %s", mv.SrcBank, in.Kind)
					continue lanes
				}
			}
			a.checkRead(pc, int(mv.SrcBank), int(mv.SrcAddr))
			if mv.Rst {
				a.rf.Free(int(mv.SrcBank), int(mv.SrcAddr))
			}
			if in.Kind == arch.KindCopy {
				a.write(pc, int(mv.Dst), a.cycle+1)
			} else {
				a.stored[row+int(mv.Dst)] = struct{}{}
			}
		}
	}
}

// exec mirrors sim.Machine.exec without values: demand-driven port
// liveness from the leaf ops, bank-read validation, post-read frees,
// layer-by-layer liveness propagation, and write-back scheduling.
func (a *analyzer) exec(pc int, in *arch.Instr) {
	cfg, w := a.cfg, a.wire
	clear(a.readBank)
	clear(a.live)
	w.MarkPorts(in.PEOps, a.portUsed)
	for pn := 0; pn < cfg.B; pn++ {
		if !a.portUsed[pn] {
			continue
		}
		bank := int(in.InputSel[pn])
		if !in.ReadEn[bank] {
			a.errorf(ClassDeadOperand, pc, -1, bank, "port %d selects bank %d which has no read enable", pn, bank)
			continue
		}
		a.readBank[bank] = true
	}
	for bank := 0; bank < cfg.B; bank++ {
		if a.readBank[bank] {
			a.checkRead(pc, bank, int(in.ReadAddr[bank]))
		}
	}
	// valid_rst applies after the cycle's reads (the crossbar broadcasts
	// one bank read to every subscribed port before the slot is freed).
	for bank := 0; bank < cfg.B; bank++ {
		if !in.ValidRst[bank] {
			continue
		}
		if a.readBank[bank] {
			a.rf.Free(bank, int(in.ReadAddr[bank]))
		} else {
			a.warnf(ClassDeadReset, pc, -1, bank, "valid_rst frees nothing (bank not read)")
		}
	}
	for l := 1; l <= cfg.D; l++ {
		for _, id := range w.Layers[l] {
			op := in.PEOps[id]
			if op == arch.PEIdle {
				continue
			}
			if needL, needR := op.Operands(); l > 1 && (needL && !a.live[w.Left[id]] || needR && !a.live[w.Right[id]]) {
				a.errorf(ClassDeadOperand, pc, id, -1, "PE %d (%s) consumes a dead operand", id, op)
			}
			a.live[id] = true // optimistic: one finding per root cause
		}
	}
	for bank := 0; bank < cfg.B; bank++ {
		if !in.WriteEn[bank] {
			continue
		}
		id := cfg.PEID(cfg.SelPE(bank, in.WriteSel[bank]))
		if !a.live[id] {
			a.errorf(ClassDeadOperand, pc, id, bank, "bank %d writes output of idle PE %d", bank, id)
		}
		a.write(pc, bank, a.cycle+cfg.D)
	}
}

// checkRead validates a register read at issue time: the address must
// hold a live value. addr is already bounds-checked by structural.
func (a *analyzer) checkRead(pc, bank, addr int) {
	if a.rf.Valid(bank, addr) {
		return
	}
	if a.ever[bank*a.cfg.R+addr] {
		a.errorf(ClassUninitRead, pc, -1, bank, "read of freed register %d.%d (use after valid_rst)", bank, addr)
	} else {
		a.errorf(ClassUninitRead, pc, -1, bank, "read of never-written register %d.%d (RAW hazard escaped the compiler)", bank, addr)
	}
}

// write queues a landing write, rejecting a second write to the same
// bank in the same landing cycle — exactly the conflict the simulator
// faults on.
func (a *analyzer) write(pc, bank, land int) {
	if other, ok := a.rf.Schedule(bank, land, pc); !ok {
		a.errorf(ClassWriteConflict, pc, -1, bank, "two writes land on bank %d at cycle %d (also scheduled at pc %d)", bank, land, other)
	}
}

// tick lands the current cycle's writes and advances the clock. Frees
// from this cycle's issue have already applied, preserving the
// frees-before-landings ordering.
func (a *analyzer) tick() {
	a.rf.Land(a.cycle, a.land)
	a.cycle++
}

func (a *analyzer) land(bank, addr, pc int) {
	if addr < 0 {
		a.errorf(ClassBankOverflow, pc, -1, bank, "bank %d overflows at cycle %d (all %d registers live)", bank, a.cycle, a.cfg.R)
		return
	}
	a.ever[bank*a.cfg.R+addr] = true
}

// Package verify statically checks compiled DPU-v2 programs against the
// machine model before anything executes them. It is the trust boundary
// between "the checksum matched" and "this program is legal": a decoded
// artifact from a shared store or the compiler's own output can both be
// proven free of the hazards the simulator treats as fatal — without
// running a single input.
//
// Verification is exact because register addresses, frees and landings
// are functions of the instruction stream alone (see internal/regfile):
// the verifier walks the program on the machine's own instruction
// walker, with the issuing pc where the machine carries a value. A
// program that verifies clean cannot read an uninitialized or freed
// register, overflow a bank, land two writes on one bank in a cycle,
// consume a dead PE operand, or touch memory out of bounds on the
// machine it was compiled for.
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
	// ClassStaleCompiler (warning) is a program another compiler
	// revision emitted: legal, but no key of this build names it, so a
	// serving engine never loads it.
	ClassStaleCompiler
)

var classNames = [...]string{
	ClassResource: "resource", ClassUninitRead: "uninit-read", ClassBankOverflow: "bank-overflow",
	ClassWriteConflict: "write-conflict", ClassDeadOperand: "dead-operand", ClassMemBounds: "mem-bounds",
	ClassMapping: "mapping", ClassDeadReset: "dead-reset", ClassStatsMismatch: "stats-mismatch",
	ClassStaleCompiler: "stale-compiler",
}

func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
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
	for x := ClassResource; x <= ClassStaleCompiler; x++ {
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

// Compiled statically verifies a compiled program plus its serving
// metadata and returns its findings (empty = clean): the instruction
// stream against its configuration and the remap/input/output maps the
// engine trusts to route values — a store-decoded artifact passes
// through exactly this before it may serve traffic. A program another
// compiler revision emitted draws a ClassStaleCompiler warning. It never
// executes the program and never panics on malformed input: every
// illegal encoding becomes a finding.
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
	st, n, count := c.Stats, len(c.Prog.Instrs), c.Prog.Counts()
	execs, nops := count[arch.KindExec], count[arch.KindNop]
	if st.Cycles != n+cfg.Drain() || st.Instructions != n || st.Execs != execs || st.Nops != nops {
		fs = append(fs, Finding{Sev: SevError, Class: ClassStatsMismatch, PC: -1, PE: -1, Bank: -1, Msg: fmt.Sprintf(
			"stored stats (cycles %d, instructions %d, execs %d, nops %d) disagree with the program (%d, %d, %d, %d)",
			st.Cycles, st.Instructions, st.Execs, st.Nops, n+cfg.Drain(), n, execs, nops)})
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
	if c.Revision != compiler.Revision {
		fs = append(fs, Finding{Sev: SevWarning, Class: ClassStaleCompiler, PC: -1, PE: -1, Bank: -1, Msg: fmt.Sprintf(
			"emitted by compiler revision %d, this build's is %d: no key of this build names the program", c.Revision, compiler.Revision)})
	}
	return fs
}

// analyzer is the abstract machine: the machine's own instruction walk
// (regfile.Walker, with the issuing pc as each landing's payload, an
// int32 to keep the B×R payload array small), its hazards turned into
// findings, and a structural pre-check on each instruction in front of
// it.
type analyzer struct {
	cfg  arch.Config
	walk *regfile.Walker[int32]
	pc   int // the issuing instruction
	// stored collects the data-memory words written by store/store_4
	// instructions, for the Compiled output-coverage check.
	stored map[int]struct{}

	fs        []Finding
	truncated bool
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
	// A config claiming a huge machine is rejected before any state is
	// allocated for it.
	if err := cfg.CheckBounds(); err != nil {
		return reject(ClassResource, err.Error()), nil
	}
	a := &analyzer{cfg: cfg, stored: make(map[int]struct{})}
	a.walk = regfile.NewWalker[int32](cfg, a)
	nop := &arch.Instr{Kind: arch.KindNop}
	for pc := range p.Instrs {
		if a.truncated {
			break
		}
		in := &p.Instrs[pc]
		a.pc = pc
		// An instruction that cannot be interpreted issues as a nop, so
		// the cycle count stays aligned.
		if !a.structural(pc, in) {
			in = nop
		}
		// The walk cannot fail: Hazard, Load and Store return nil, and
		// structural rejects every kind the walker would.
		_ = a.walk.Step(in)
	}
	_ = a.walk.Drain() // as in sim.Machine.Run: writes in flight land
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

// structural is the resource-envelope check: arch.Instr.Validate, the
// walker's precondition, with a data-memory row out of range reported
// as its own class. A false return means the instruction cannot be
// interpreted; the caller issues a nop in its place so the cycle count
// stays aligned.
func (a *analyzer) structural(pc int, in *arch.Instr) bool {
	switch in.Kind {
	case arch.KindLoad, arch.KindStore, arch.KindStore4:
		if rows := a.cfg.DataMemWords / a.cfg.B; in.MemAddr < 0 || in.MemAddr >= rows {
			a.report(Finding{Sev: SevError, Class: ClassMemBounds, PC: pc, PE: -1, Bank: -1,
				Msg: fmt.Sprintf("%s row %d outside the %d-row data memory", in.Kind, in.MemAddr, rows)})
			return false
		}
	}
	if err := in.Validate(a.cfg); err != nil {
		a.report(Finding{Sev: SevError, Class: ClassResource, PC: pc, PE: -1, Bank: -1, Msg: err.Error()})
		return false
	}
	return true
}

// Op, Load and Store make every write the walker schedules carry the
// issuing pc, and record the words stores write.
func (a *analyzer) Op(arch.PEOp, int32, int32) int32 { return int32(a.pc) }
func (a *analyzer) Load(int) (int32, error)          { return int32(a.pc), nil }
func (a *analyzer) Store(addr int, _ int32) error {
	a.stored[addr] = struct{}{}
	return nil
}

// hazardClass is the finding class of each walker hazard.
var hazardClass = [...]Class{
	regfile.UninitRead: ClassUninitRead, regfile.BankOverflow: ClassBankOverflow,
	regfile.WriteConflict: ClassWriteConflict, regfile.DeadOperand: ClassDeadOperand,
	regfile.DoubleRead: ClassResource, regfile.DeadReset: ClassDeadReset,
}

// Hazard turns a hazard into a finding and lets the walk continue
// optimistically (the port stays live, the write still lands), so one
// root cause does not multiply into a finding per downstream consumer.
func (a *analyzer) Hazard(h regfile.Hazard[int32]) error {
	f := Finding{Sev: SevError, Class: hazardClass[h.Kind], PC: a.pc, PE: h.PE, Bank: h.Bank, Msg: h.Msg}
	switch h.Kind {
	case regfile.BankOverflow:
		f.PC = int(h.Payload)
	case regfile.WriteConflict:
		f.Msg += fmt.Sprintf(" (also scheduled at pc %d)", h.Payload)
	case regfile.DeadReset:
		f.Sev = SevWarning
	}
	a.report(f)
	return nil
}

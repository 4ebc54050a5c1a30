package verify_test

import (
	"strings"
	"testing"

	"dpuv2/internal/arch"
	"dpuv2/internal/verify"
)

// TestDegenerateInputs: the verifier must turn every malformed input
// into findings, never a panic — it sits on the decode path for
// untrusted store bytes.
func TestDegenerateInputs(t *testing.T) {
	cfg := arch.Config{D: 1, B: 2, R: 2}.Normalize()

	if fs := verify.Program(nil, cfg); !verify.HasErrors(fs) {
		t.Error("nil program must not verify")
	}
	if fs := verify.Compiled(nil); !verify.HasErrors(fs) {
		t.Error("nil compiled must not verify")
	}
	if fs := verify.Program(&arch.Program{}, arch.Config{D: 9, B: 2, R: 2}); !verify.HasErrors(fs) {
		t.Error("invalid config must not verify")
	}
	// A register file past arch.Config.CheckBounds is rejected before
	// any state is allocated for it.
	huge := arch.Config{D: 1, B: 4096, R: 4096}
	if fs := verify.Program(&arch.Program{Cfg: huge}, huge); !verify.HasErrors(fs) {
		t.Error("oversized register file must not verify")
	}
	// Unknown opcode.
	p := &arch.Program{Cfg: cfg, Instrs: []arch.Instr{{Kind: arch.Kind(250)}}}
	fs := verify.Program(p, cfg)
	if !verify.HasErrors(fs) || fs[0].Class != verify.ClassResource {
		t.Errorf("unknown opcode: want a resource error, got %v", fs)
	}
	// The empty program is legal.
	if fs := verify.Program(&arch.Program{Cfg: cfg}, cfg); len(fs) != 0 {
		t.Errorf("empty program: want clean, got %v", fs)
	}
}

// TestFindingsTruncated: a garbage program cannot make verification
// produce unbounded findings — analysis stops with a truncation marker.
func TestFindingsTruncated(t *testing.T) {
	cfg := arch.Config{D: 1, B: 2, R: 2}.Normalize()
	var p arch.Program
	p.Cfg = cfg
	var b arch.Builder
	for i := 0; i < 500; i++ {
		ld := b.Load(cfg, cfg.DataMemWords) // every instruction out of bounds
		p.Instrs = append(p.Instrs, ld)
	}
	fs := verify.Program(&p, cfg)
	if len(fs) >= 500 {
		t.Fatalf("findings not truncated: %d", len(fs))
	}
	last := fs[len(fs)-1]
	if !strings.Contains(last.Msg, "truncated") {
		t.Fatalf("missing truncation marker, last finding: %s", last)
	}
}

func TestFindingString(t *testing.T) {
	f := verify.Finding{Sev: verify.SevError, Class: verify.ClassUninitRead, PC: 7, PE: -1, Bank: 3, Msg: "x"}
	s := f.String()
	for _, want := range []string{"error", "uninit-read", "pc 7", "bank 3"} {
		if !strings.Contains(s, want) {
			t.Errorf("finding string %q missing %q", s, want)
		}
	}
	if got := verify.Summary(nil); got != "clean" {
		t.Errorf("empty summary = %q", got)
	}
}

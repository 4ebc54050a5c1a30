package verify_test

import (
	"testing"

	"dpuv2/internal/arch"
	"dpuv2/internal/sim"
	"dpuv2/internal/verify"
)

// TestMachineAgreesWithVerifier runs the clean baseline and every
// instruction-stream hazard program of TestMutationClasses and
// TestSyntheticHazards on the cycle-accurate machine: it must fault
// exactly when verify.Program reports an error.
func TestMachineAgreesWithVerifier(t *testing.T) {
	progs := map[string]*arch.Program{
		"baseline":       goodCompiled(t).Prog,
		"write-conflict": writeConflictProgram(),
		"bank-overflow":  bankOverflowProgram(),
		"use-after-free": useAfterFreeProgram(),
		"idle-pe-write":  idlePEWriteProgram(),
		"dead-reset":     deadResetProgram(),
	}
	for _, m := range streamMutations {
		c := goodCompiled(t)
		m.mutate(t, c)
		progs[m.name] = c.Prog
	}
	for name, p := range progs {
		t.Run(name, func(t *testing.T) {
			fs := verify.Program(p, p.Cfg)
			err := sim.NewMachine(p.Cfg, p.InitMem).Run(p)
			if verify.HasErrors(fs) != (err != nil) {
				t.Fatalf("verifier: %s; machine: %v", verify.Summary(fs), err)
			}
			if name == "baseline" && (len(fs) != 0 || err != nil) {
				t.Fatalf("baseline: verifier %s, machine %v", verify.Summary(fs), err)
			}
		})
	}
}

package verify

import "dpuv2/internal/arch"

// Program statically verifies a program against cfg and returns its
// findings (empty = clean): Compiled's instruction-stream check alone,
// for tests that hand it a bare or malformed program.
func Program(p *arch.Program, cfg arch.Config) []Finding {
	fs, _ := run(p, cfg)
	return fs
}

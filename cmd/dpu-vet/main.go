// Command dpu-vet statically verifies compiled-program artifacts
// offline: the same analysis the serving engine runs at its trust
// boundaries (see internal/verify), as a lint over files. Point it at a
// shared -artifact-dir before (or instead of) serving from it:
//
//	dpu-vet /var/dpu-store          # vet every artifact
//	dpu-vet -json prog.dpuprog      # machine-readable findings
//
// Exit status is 0 when everything decodes and verifies clean (warnings
// allowed), 1 when any file fails to decode or carries error-severity
// findings, 2 on usage errors.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"dpuv2/internal/artifact"
	"dpuv2/internal/verify"
)

// report is one vetted file. Error is a decode-level failure (the file
// never reached the verifier); Findings are the verifier's results.
type report struct {
	Path     string           `json:"path"`
	Error    string           `json:"error,omitempty"`
	Findings []verify.Finding `json:"findings,omitempty"`
}

func (r report) bad() bool { return r.Error != "" || verify.HasErrors(r.Findings) }

// run is the testable body of the command; it returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("dpu-vet", flag.ContinueOnError)
	flags.SetOutput(stderr)
	jsonOut := flags.Bool("json", false, "emit one JSON report per file instead of text")
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0 // -h is a successful usage request, not a mistake
		}
		return 2
	}
	if flags.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: dpu-vet [-json] <artifact-file-or-dir>...")
		return 2
	}

	var files []string
	for _, arg := range flags.Args() {
		info, err := os.Stat(arg)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		if !info.IsDir() {
			files = append(files, arg)
			continue
		}
		err = filepath.WalkDir(arg, func(path string, d fs.DirEntry, werr error) error {
			if werr != nil || d.IsDir() {
				return werr
			}
			// Hidden files cover a writer's in-flight ".tmp-*" spool; a
			// crashed writer's leftovers are the store's to sweep, not ours
			// to fail on.
			if strings.HasPrefix(d.Name(), ".") {
				return nil
			}
			if filepath.Ext(path) == artifact.Ext {
				files = append(files, path)
			}
			return nil
		})
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}

	enc := json.NewEncoder(stdout)
	bad, warnings := 0, 0
	for _, path := range files {
		r := vetFile(path)
		if r.bad() {
			bad++
		}
		for _, f := range r.Findings {
			if f.Sev == verify.SevWarning {
				warnings++
			}
		}
		if *jsonOut {
			enc.Encode(r)
			continue
		}
		if r.Error != "" {
			fmt.Fprintf(stdout, "%s: %s\n", r.Path, r.Error)
		}
		for _, f := range r.Findings {
			fmt.Fprintf(stdout, "%s: %s\n", r.Path, f)
		}
	}
	if !*jsonOut {
		fmt.Fprintf(stdout, "vetted %d file(s): %d bad, %d warning(s)\n", len(files), bad, warnings)
	}
	if bad > 0 {
		return 1
	}
	return 0
}

// vetFile decodes and verifies one artifact file.
func vetFile(path string) report {
	r := report{Path: path}
	b, err := os.ReadFile(path)
	if err != nil {
		r.Error = err.Error()
		return r
	}
	a, err := artifact.DecodeBytes(b)
	if err != nil {
		r.Error = err.Error()
		return r
	}
	r.Findings = verify.Compiled(a.Compiled)
	return r
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

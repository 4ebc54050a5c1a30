// Package lint enforces repo-wide source invariants that the type
// system cannot express, using only the standard library's go/ast
// parser (no go/analysis dependency). It runs as a normal test
// (TestRepoInvariants), so `go test ./...` is the enforcement point.
//
// Two invariants are checked:
//
//   - clockuse: code in internal/sched and internal/serve must not
//     read or arm real time directly (time.Now, time.Sleep, timers…).
//     Those packages are tested with a deterministic FakeClock, and a
//     single stray time.Now turns a reproducible scheduling test into
//     a flaky one. The injectable sched.Clock is the only door; the
//     systemClock implementation behind it carries a
//     `//lint:allow clockuse` doc directive.
//
//   - machinereset: a sim.Machine holds register-bank valid bits and a
//     landing ring from its last program. Reusing one without Reset
//     leaks that state into the next run. Any function that receives a
//     *sim.Machine (its caller may have run it already) must Reset
//     before Run, and a machine built outside a loop must be Reset
//     inside the loop that reruns it.
//
// The analysis is purely syntactic: it tracks import aliases but does
// no type inference, trading a little precision for zero dependencies
// and sub-second runtime over the whole tree.
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Issue is one invariant violation.
type Issue struct {
	Pos  string // file:line, relative to the linted root
	Rule string // "clockuse" or "machinereset"
	Msg  string
}

func (i Issue) String() string { return i.Pos + ": " + i.Rule + ": " + i.Msg }

// Source lints every non-test .go file under root and returns the
// violations sorted by position. testdata and dot-directories are
// skipped; a file that fails to parse is an error (the build is broken,
// not merely non-conforming).
func Source(root string) ([]Issue, error) {
	var issues []Issue
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, werr error) error {
		if werr != nil {
			return werr
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || (strings.HasPrefix(name, ".") && path != root) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("lint: %w", err)
		}
		rel, rerr := filepath.Rel(root, path)
		if rerr != nil {
			rel = path
		}
		rel = filepath.ToSlash(rel)
		if strings.HasPrefix(rel, "internal/sched/") || strings.HasPrefix(rel, "internal/serve/") {
			issues = append(issues, clockuse(fset, f)...)
		}
		issues = append(issues, machineReset(fset, f)...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(issues, func(i, j int) bool {
		if issues[i].Pos != issues[j].Pos {
			return issues[i].Pos < issues[j].Pos
		}
		return issues[i].Msg < issues[j].Msg
	})
	return issues, nil
}

// importName returns the identifier under which importPath is visible
// in f: its alias if renamed, the path's base name otherwise, "" if not
// imported (or blank-imported, which exposes no identifier).
func importName(f *ast.File, importPath string) string {
	for _, imp := range f.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil || p != importPath {
			continue
		}
		if imp.Name != nil {
			if imp.Name.Name == "_" || imp.Name.Name == "." {
				return ""
			}
			return imp.Name.Name
		}
		return filepath.Base(p)
	}
	return ""
}

// allows reports whether a doc comment group carries a
// `lint:allow <rule>` directive.
func allows(doc *ast.CommentGroup, rule string) bool {
	if doc == nil {
		return false
	}
	return strings.Contains(doc.Text(), "lint:allow "+rule) ||
		strings.Contains(allComments(doc), "lint:allow "+rule)
}

// allComments joins the raw comment lines; CommentGroup.Text strips
// `//lint:` directive comments, so the raw form is what directives
// live in.
func allComments(doc *ast.CommentGroup) string {
	var b strings.Builder
	for _, c := range doc.List {
		b.WriteString(c.Text)
		b.WriteByte('\n')
	}
	return b.String()
}

func position(fset *token.FileSet, p token.Pos) string {
	pos := fset.Position(p)
	return fmt.Sprintf("%s:%d", filepath.ToSlash(pos.Filename), pos.Line)
}

// bannedTime are the package-time selectors that read or arm the real
// clock. Types (time.Time, time.Duration) and constants stay legal.
var bannedTime = map[string]bool{
	"Now": true, "Sleep": true, "Since": true, "Until": true,
	"After": true, "AfterFunc": true, "NewTimer": true,
	"NewTicker": true, "Tick": true,
}

// clockuse flags direct real-time access in a file that is required to
// go through the injectable sched.Clock.
func clockuse(fset *token.FileSet, f *ast.File) []Issue {
	timeName := importName(f, "time")
	if timeName == "" {
		return nil
	}
	var issues []Issue
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil || allows(fd.Doc, "clockuse") {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok || id.Name != timeName || !bannedTime[sel.Sel.Name] {
				return true
			}
			issues = append(issues, Issue{
				Pos:  position(fset, sel.Pos()),
				Rule: "clockuse",
				Msg: fmt.Sprintf("time.%s bypasses the injectable sched.Clock; thread a Clock through (or annotate the function with lint:allow clockuse)",
					sel.Sel.Name),
			})
			return true
		})
	}
	return issues
}

// machineReset flags sim.Machine reuse paths that skip Reset.
func machineReset(fset *token.FileSet, f *ast.File) []Issue {
	simName := importName(f, "dpuv2/internal/sim")
	inSim := f.Name.Name == "sim"
	if simName == "" && !inSim {
		return nil
	}
	var issues []Issue
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil || allows(fd.Doc, "machinereset") {
			continue
		}

		// Machines handed to the function arrive with unknown state.
		dirty := map[string]bool{}
		if fd.Type.Params != nil {
			for _, field := range fd.Type.Params.List {
				if !isMachineType(field.Type, simName, inSim) {
					continue
				}
				for _, name := range field.Names {
					dirty[name.Name] = true
				}
			}
		}
		// Machines built fresh in this function (NewMachine zeroes
		// state, so a straight-line Run is fine).
		fresh := map[string]bool{}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, rhs := range as.Rhs {
				if i >= len(as.Lhs) {
					break
				}
				if id, ok := as.Lhs[i].(*ast.Ident); ok && isNewMachine(rhs, simName, inSim) {
					fresh[id.Name] = true
				}
			}
			return true
		})
		if len(dirty) == 0 && len(fresh) == 0 {
			continue
		}

		// Dirty machines: Run is only legal after a Reset (positional
		// check — good enough for straight-line reuse code, and false
		// negatives are caught by the differential tests anyway).
		for name := range dirty {
			run := firstMethodCall(fd.Body, name, "Run")
			if !run.IsValid() {
				continue
			}
			reset := firstMethodCall(fd.Body, name, "Reset")
			if !reset.IsValid() || reset > run {
				issues = append(issues, Issue{
					Pos:  position(fset, run),
					Rule: "machinereset",
					Msg:  fmt.Sprintf("machine %q may carry a previous program's state; call %s.Reset before %s.Run", name, name, name),
				})
			}
		}
		// Fresh machines rerun in a loop: the loop body must recreate
		// or Reset them, or iteration 2 starts from iteration 1's
		// register file.
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch loop := n.(type) {
			case *ast.ForStmt:
				body = loop.Body
			case *ast.RangeStmt:
				body = loop.Body
			default:
				return true
			}
			for name := range fresh {
				run := firstMethodCall(body, name, "Run")
				if !run.IsValid() {
					continue
				}
				if firstMethodCall(body, name, "Reset").IsValid() || createdIn(body, name, simName, inSim) {
					continue
				}
				issues = append(issues, Issue{
					Pos:  position(fset, run),
					Rule: "machinereset",
					Msg:  fmt.Sprintf("machine %q is rerun across loop iterations without Reset; stale register state leaks between runs", name),
				})
			}
			return true
		})
	}
	return issues
}

// isMachineType matches *sim.Machine (and *Machine inside package sim).
func isMachineType(t ast.Expr, simName string, inSim bool) bool {
	star, ok := t.(*ast.StarExpr)
	if !ok {
		return false
	}
	switch x := star.X.(type) {
	case *ast.SelectorExpr:
		id, ok := x.X.(*ast.Ident)
		return ok && simName != "" && id.Name == simName && x.Sel.Name == "Machine"
	case *ast.Ident:
		return inSim && x.Name == "Machine"
	}
	return false
}

// isNewMachine reports whether an assignment RHS is a call of
// sim.NewMachine (plain NewMachine inside package sim).
func isNewMachine(rhs ast.Expr, simName string, inSim bool) bool {
	call, ok := rhs.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		id, ok := fun.X.(*ast.Ident)
		return ok && simName != "" && id.Name == simName && fun.Sel.Name == "NewMachine"
	case *ast.Ident:
		return inSim && fun.Name == "NewMachine"
	}
	return false
}

// firstMethodCall returns the position of the first `name.method(...)`
// call under n, or token.NoPos.
func firstMethodCall(n ast.Node, name, method string) token.Pos {
	best := token.NoPos
	ast.Inspect(n, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != method {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok || id.Name != name {
			return true
		}
		if !best.IsValid() || call.Pos() < best {
			best = call.Pos()
		}
		return true
	})
	return best
}

// createdIn reports whether body (re)assigns name from NewMachine,
// which makes in-loop reuse safe.
func createdIn(body *ast.BlockStmt, name, simName string, inSim bool) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			if i >= len(as.Lhs) {
				break
			}
			id, ok := as.Lhs[i].(*ast.Ident)
			if ok && id.Name == name && isNewMachine(rhs, simName, inSim) {
				found = true
			}
		}
		return true
	})
	return found
}

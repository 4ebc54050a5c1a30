// Package lint enforces repo-wide source invariants that the type
// system cannot express, using only the standard library's go/ast
// parser (no go/analysis dependency). It runs as a normal test
// (TestRepoInvariants), so `go test ./...` is the enforcement point.
//
// One invariant is checked, clockuse: code in internal/sched and
// internal/serve must not read or arm real time directly (time.Now,
// time.Sleep, timers…). Those packages are tested with a deterministic
// FakeClock, and a single stray time.Now turns a reproducible scheduling
// test into a flaky one. The injectable sched.Clock is the only door;
// the systemClock implementation behind it carries a
// `//lint:allow clockuse` doc directive.
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
	Rule string // "clockuse"
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

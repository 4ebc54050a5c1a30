// Package lint checks rules about the repository's source that no
// compiler or vet pass enforces. It has no production code. Each rule
// is a function over a parsed module, so the tests can run it over the
// real repository and over a small planted module that must fail it:
//
//   - every top-level declaration in a non-test file under internal/ is
//     named in some non-test file other than where a declaration names it;
//   - the test-support packages are imported only from _test.go files;
//   - no test file assigns a top-level var of a non-test file;
//   - every -run and -fuzz pattern in the CI workflow selects a test.
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// testSupport lists the packages, relative to the module root, that
// exist only to serve tests: test oracles shared across packages. Only
// _test.go files import them, and their own declarations count as test
// code, so they are not held to the non-test-use rule.
var testSupport = []string{"internal/metrics/promtest"}

// implicit lists the declarations Go calls without naming them, keyed
// by package directory, receiver and name. Each carries its reason.
var implicit = map[string]string{
	"internal/verify.Severity.MarshalJSON":   "called by encoding/json",
	"internal/verify.Severity.UnmarshalJSON": "called by encoding/json",
	"internal/verify.Class.MarshalJSON":      "called by encoding/json",
	"internal/verify.Class.UnmarshalJSON":    "called by encoding/json",
	"internal/sched.CompileError.Unwrap":     "called by errors.Is and errors.As",
}

// file is one parsed Go file of the module.
type file struct {
	rel  string // slash-separated path from the module root
	dir  string // its package directory, slash-separated
	test bool   // a _test.go file, or a file of a test-support package
	ast  *ast.File
}

// module is every Go file under one module root.
type module struct {
	root, path string // directory and module path (from go.mod)
	fset       *token.FileSet
	files      []*file
}

// load parses every Go file under root, skipping testdata and hidden
// directories.
func load(root string) (*module, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := &module{root: root, fset: token.NewFileSet()}
	for _, line := range strings.Split(string(mod), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			m.path = strings.TrimSpace(rest)
		}
	}
	if m.path == "" {
		return nil, fmt.Errorf("%s: no module line", filepath.Join(root, "go.mod"))
	}
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		// Object resolution marks each identifier declared in its own
		// file, which testWrites needs to tell a local from a package var.
		f, err := parser.ParseFile(m.fset, p, nil, 0)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		dir := filepath.ToSlash(filepath.Dir(rel))
		m.files = append(m.files, &file{
			rel:  rel,
			dir:  dir,
			test: strings.HasSuffix(name, "_test.go") || isSupport(dir),
			ast:  f,
		})
		return nil
	})
	return m, err
}

func isSupport(dir string) bool {
	for _, s := range testSupport {
		if dir == s {
			return true
		}
	}
	return false
}

// unused reports each top-level func, method, type, var and const of a
// non-test file under internal/ whose name no non-test file mentions
// except where a top-level declaration is named. Matching by name can
// only over-count uses (a field, a local or another package's
// identifier of the same name counts), so a declaration it reports has
// no non-test use at all.
func unused(m *module) []string {
	uses := make(map[string]bool)
	for _, f := range m.files {
		if f.test {
			continue
		}
		names := make(map[*ast.Ident]bool)
		for _, d := range f.ast.Decls {
			for _, id := range declNames(d) {
				names[id.name] = true
			}
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !names[id] {
				uses[id.Name] = true
			}
			return true
		})
	}
	var out []string
	for _, f := range m.files {
		if f.test || !strings.HasPrefix(f.rel, "internal/") {
			continue
		}
		for _, d := range f.ast.Decls {
			for _, id := range declNames(d) {
				name := id.name.Name
				if name == "_" || name == "init" || uses[name] {
					continue
				}
				if _, ok := implicit[f.dir+"."+id.qual]; ok {
					continue
				}
				pos := m.fset.Position(id.name.Pos())
				out = append(out, fmt.Sprintf("%s:%d: %s has no non-test use", f.rel, pos.Line, id.qual))
			}
		}
	}
	return out
}

// declName is one name a top-level declaration introduces; qual is
// "Recv.Name" for a method and the bare name otherwise.
type declName struct {
	name *ast.Ident
	qual string
}

func declNames(d ast.Decl) []declName {
	var out []declName
	switch d := d.(type) {
	case *ast.FuncDecl:
		qual := d.Name.Name
		if d.Recv != nil && len(d.Recv.List) == 1 {
			qual = recvName(d.Recv.List[0].Type) + "." + qual
		}
		out = append(out, declName{d.Name, qual})
	case *ast.GenDecl:
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				out = append(out, declName{s.Name, s.Name.Name})
			case *ast.ValueSpec:
				for _, id := range s.Names {
					out = append(out, declName{id, id.Name})
				}
			}
		}
	}
	return out
}

// recvName is the type name of a method receiver: T, *T, T[P] or *T[P].
func recvName(x ast.Expr) string {
	for {
		switch t := x.(type) {
		case *ast.StarExpr:
			x = t.X
		case *ast.IndexExpr:
			x = t.X
		case *ast.IndexListExpr:
			x = t.X
		case *ast.Ident:
			return t.Name
		default:
			return "?"
		}
	}
}

// supportImports reports each non-test file that imports a test-support
// package.
func supportImports(m *module) []string {
	var out []string
	for _, f := range m.files {
		if f.test {
			continue
		}
		for _, imp := range f.ast.Imports {
			p := strings.Trim(imp.Path.Value, "`\"")
			for _, s := range testSupport {
				if p == m.path+"/"+s {
					out = append(out, fmt.Sprintf("%s: non-test file imports test-support package %s", f.rel, p))
				}
			}
		}
	}
	return out
}

// testWrites reports each statement of a test file that assigns a
// top-level var of a non-test file: v = …, v op= …, v++, v-- or a range
// assignment, on v in its own package or on pkg.V from another package's
// tests. A package var that a test sets is a second way to configure the
// code under test, and nothing that reads it may run beside that test.
// A name declared in the test file itself (a local, a parameter) is
// resolved by the parser and is not a package var of another file.
func testWrites(m *module) []string {
	vars := make(map[string]map[string]bool) // package dir → non-test vars
	pkgName := make(map[string]string)       // package dir → its non-test package name
	for _, f := range m.files {
		if f.test {
			continue
		}
		pkgName[f.dir] = f.ast.Name.Name
		for _, d := range f.ast.Decls {
			if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.VAR {
				for _, spec := range gd.Specs {
					for _, id := range spec.(*ast.ValueSpec).Names {
						if vars[f.dir] == nil {
							vars[f.dir] = make(map[string]bool)
						}
						vars[f.dir][id.Name] = true
					}
				}
			}
		}
	}
	var out []string
	for _, f := range m.files {
		if !f.test {
			continue
		}
		imports := make(map[string]string) // local name → package dir
		for _, imp := range f.ast.Imports {
			if dir, ok := strings.CutPrefix(strings.Trim(imp.Path.Value, "`\""), m.path+"/"); ok {
				name := pkgName[dir]
				if imp.Name != nil {
					name = imp.Name.Name
				}
				imports[name] = dir
			}
		}
		check := func(lhs ast.Expr) {
			dir, name := "", ""
			switch x := lhs.(type) {
			case *ast.Ident:
				if x.Obj == nil && f.ast.Name.Name == pkgName[f.dir] {
					dir, name = f.dir, x.Name
				}
			case *ast.SelectorExpr:
				if pkg, ok := x.X.(*ast.Ident); ok && pkg.Obj == nil {
					dir, name = imports[pkg.Name], x.Sel.Name
				}
			}
			if name != "" && vars[dir][name] {
				pos := m.fset.Position(lhs.Pos())
				out = append(out, fmt.Sprintf("%s:%d: test assigns %s, a package var of %s", f.rel, pos.Line, name, dir))
			}
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				if s.Tok != token.DEFINE {
					for _, lhs := range s.Lhs {
						check(lhs)
					}
				}
			case *ast.IncDecStmt:
				check(s.X)
			case *ast.RangeStmt:
				if s.Tok == token.ASSIGN {
					for _, lhs := range []ast.Expr{s.Key, s.Value} {
						if lhs != nil {
							check(lhs)
						}
					}
				}
			}
			return true
		})
	}
	return out
}

// selectorRE finds a -run or -fuzz flag and its pattern, quoted or bare.
var selectorRE = regexp.MustCompile(`-(run|fuzz)[ =]('[^']*'|"[^"]*"|\S+)`)

// ciSelectors reads the workflow and reports each alternative of a -run
// or -fuzz pattern, split on | with its anchors stripped, that matches
// no test (for -fuzz, no fuzz target) in the packages its go test
// command names. An alternative that is empty once stripped, as in
// -run '^$', selects nothing on purpose and is skipped.
func ciSelectors(m *module, workflow string) ([]string, error) {
	body, err := os.ReadFile(filepath.Join(m.root, workflow))
	if err != nil {
		return nil, err
	}
	tests := make(map[string][]string) // package dir → Test/Fuzz names
	for _, f := range m.files {
		if !strings.HasSuffix(f.rel, "_test.go") {
			continue
		}
		for _, d := range f.ast.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil &&
				(strings.HasPrefix(fd.Name.Name, "Test") || strings.HasPrefix(fd.Name.Name, "Fuzz")) {
				tests[f.dir] = append(tests[f.dir], fd.Name.Name)
			}
		}
	}
	var out []string
	for i, text := range strings.Split(string(body), "\n") {
		for _, cmd := range strings.Split(text, "&&") {
			if !strings.Contains(cmd, "go test") {
				continue
			}
			var names []string
			for _, tok := range strings.Fields(cmd) {
				if pkg, ok := strings.CutPrefix(tok, "./"); ok {
					for dir, ns := range tests {
						if covers(pkg, dir) {
							names = append(names, ns...)
						}
					}
				}
			}
			for _, sel := range selectorRE.FindAllStringSubmatch(cmd, -1) {
				for _, alt := range strings.Split(strings.Trim(sel[2], `'"`), "|") {
					alt = strings.TrimSuffix(strings.TrimPrefix(alt, "^"), "$")
					if alt == "" {
						continue
					}
					re, err := regexp.Compile(alt)
					if err != nil {
						return nil, fmt.Errorf("%s:%d: -%s %q: %v", workflow, i+1, sel[1], alt, err)
					}
					if !selects(re, names, sel[1] == "fuzz") {
						out = append(out, fmt.Sprintf("%s:%d: -%s alternative %q selects no test", workflow, i+1, sel[1], alt))
					}
				}
			}
		}
	}
	return out, nil
}

// covers reports whether the go test package argument ./pkg names the
// package in dir: the same directory, or one under pkg's /... pattern.
func covers(pkg, dir string) bool {
	if base, ok := strings.CutSuffix(pkg, "..."); ok {
		return base == "" || strings.HasPrefix(dir+"/", base)
	}
	return pkg == dir
}

func selects(re *regexp.Regexp, names []string, fuzzOnly bool) bool {
	for _, n := range names {
		if (!fuzzOnly || strings.HasPrefix(n, "Fuzz")) && re.MatchString(n) {
			return true
		}
	}
	return false
}

// TestRepoInvariants runs every rule over this repository.
func TestRepoInvariants(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	m, err := load(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range unused(m) {
		t.Error(msg)
	}
	for _, msg := range supportImports(m) {
		t.Error(msg)
	}
	for _, msg := range testWrites(m) {
		t.Error(msg)
	}
	msgs, err := ciSelectors(m, ".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range msgs {
		t.Error(msg)
	}
}

// TestRulesCatchPlants runs the rules over a small module with one plant
// per rule and checks each is reported, and nothing else.
func TestRulesCatchPlants(t *testing.T) {
	root := t.TempDir()
	write := func(rel, body string) {
		t.Helper()
		p := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module planted\n\ngo 1.24\n")
	write("internal/a/a.go", "package a\n\nfunc Used() int { return 1 + hook + Hook }\n\nfunc Unused() int { return 2 }\n\nvar hook, Hook int\n")
	// Two writes to package vars, in-package and from an external test;
	// the shadowing local and parameter are not package vars.
	write("internal/a/a_test.go", "package a\n\nimport \"testing\"\n\nfunc TestHere(t *testing.T) { _ = Unused(); hook = 2 }\n\n"+
		"func TestLocal(t *testing.T) { hook := 0; hook++; func(Hook int) { Hook += hook }(1) }\n")
	write("internal/a/ext_test.go", "package a_test\n\nimport (\n\t\"testing\"\n\n\t\"planted/internal/a\"\n)\n\nfunc TestExt(t *testing.T) { a.Hook++ }\n")
	write("internal/metrics/promtest/p.go", "package promtest\n\nfunc Parse() int { return 3 }\n")
	write("cmd/x/main.go", "package main\n\nimport (\n\t\"planted/internal/a\"\n\t\"planted/internal/metrics/promtest\"\n)\n\n"+
		"func main() { _ = a.Used() + promtest.Parse() }\n")
	write("ci.yml", "      - run: go test -run 'TestHere|^TestGone$' ./internal/a\n"+
		"      - run: go test -run '^$' -fuzz FuzzMissing ./internal/...\n")
	m, err := load(root)
	if err != nil {
		t.Fatal(err)
	}
	sels, err := ciSelectors(m, "ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	got := append(append(append(unused(m), supportImports(m)...), testWrites(m)...), sels...)
	want := []string{
		"internal/a/a.go:5: Unused has no non-test use",
		"internal/a/a_test.go:5: test assigns hook, a package var of internal/a",
		"internal/a/ext_test.go:9: test assigns Hook, a package var of internal/a",
		"cmd/x/main.go: non-test file imports test-support package planted/internal/metrics/promtest",
		`ci.yml:1: -run alternative "TestGone" selects no test`,
		`ci.yml:2: -fuzz alternative "FuzzMissing" selects no test`,
	}
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("reports:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRepoInvariants is the enforcement point: the whole repository
// must lint clean. CI runs this by name; locally it is part of the
// ordinary `go test ./...` sweep.
func TestRepoInvariants(t *testing.T) {
	issues, err := Source("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, is := range issues {
		t.Errorf("%s", is)
	}
}

// write lays out a synthetic source tree for rule tests.
func write(t *testing.T, root, rel, src string) {
	t.Helper()
	path := filepath.Join(root, filepath.FromSlash(rel))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
}

func lintTree(t *testing.T, root string) []Issue {
	t.Helper()
	issues, err := Source(root)
	if err != nil {
		t.Fatal(err)
	}
	return issues
}

func wantRules(t *testing.T, issues []Issue, rules ...string) {
	t.Helper()
	if len(issues) != len(rules) {
		t.Fatalf("got %d issues %v, want %d", len(issues), issues, len(rules))
	}
	for i, r := range rules {
		if issues[i].Rule != r {
			t.Errorf("issue %d: rule %q, want %q (%s)", i, issues[i].Rule, r, issues[i])
		}
	}
}

func TestClockuseFlagsDirectTime(t *testing.T) {
	root := t.TempDir()
	write(t, root, "internal/sched/x.go", `package sched

import "time"

func f() time.Time { return time.Now() }
`)
	issues := lintTree(t, root)
	wantRules(t, issues, "clockuse")
	if !strings.Contains(issues[0].Msg, "time.Now") {
		t.Errorf("message does not name the call: %s", issues[0])
	}
}

func TestClockuseSeesThroughImportAlias(t *testing.T) {
	root := t.TempDir()
	write(t, root, "internal/serve/x.go", `package serve

import tm "time"

func f() { tm.Sleep(tm.Second) }
`)
	wantRules(t, lintTree(t, root), "clockuse")
}

func TestClockuseAllowDirective(t *testing.T) {
	root := t.TempDir()
	write(t, root, "internal/sched/x.go", `package sched

import "time"

// f is the sanctioned door to the wall clock.
//
//lint:allow clockuse
func f() time.Time { return time.Now() }
`)
	wantRules(t, lintTree(t, root))
}

func TestClockuseScopedToSchedAndServe(t *testing.T) {
	root := t.TempDir()
	// time.Now outside the scoped packages is legal.
	write(t, root, "internal/bench/x.go", `package bench

import "time"

func f() time.Time { return time.Now() }
`)
	// time.Duration types inside them are legal too.
	write(t, root, "internal/sched/y.go", `package sched

import "time"

const linger = 500 * time.Microsecond

func g(d time.Duration) time.Duration { return d + linger }
`)
	wantRules(t, lintTree(t, root))
}

func TestClockuseSkipsTestFiles(t *testing.T) {
	root := t.TempDir()
	write(t, root, "internal/sched/x_test.go", `package sched

import "time"

func f() time.Time { return time.Now() }
`)
	wantRules(t, lintTree(t, root))
}

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRepoIsClean is the acceptance gate: one hmpivet invocation over
// the whole tree covers every Go package and every shipped .mpc model
// (directory walks sweep models too) and must report nothing. A new
// finding anywhere in the repo fails tier-1 here.
func TestRepoIsClean(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{filepath.Join("..", "..")}, "", false, false, &out); code != 0 {
		t.Fatalf("hmpivet found violations in the repo (exit %d):\n%s", code, out.String())
	}
}

// TestSeededGoViolation proves the Go analyzers actually fire: a leaked
// group seeded into a scratch package must flag and exit non-zero.
func TestSeededGoViolation(t *testing.T) {
	dir := t.TempDir()
	src := `package scratch

type Group struct{}

type Process struct{}

func (h *Process) GroupCreate(m any) (*Group, error) { return nil, nil }

func (g *Group) Rank() int { return 0 }

func leak(h *Process) {
	g, _ := h.GroupCreate(nil)
	_ = g.Rank()
}
`
	if err := os.WriteFile(filepath.Join(dir, "scratch.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	code := run([]string{dir}, "", false, false, &out)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "never freed") {
		t.Fatalf("missing groupfree finding:\n%s", out.String())
	}
}

// TestSeededModelViolation proves the model front fires: a
// self-communicating scheme must flag and exit non-zero — both when the
// model is named directly and when it is only swept up by a directory
// walk.
func TestSeededModelViolation(t *testing.T) {
	dir := t.TempDir()
	src := `algorithm Bad(int p) {
  coord I=p;
  node {I>=0: bench*(1);};
  scheme {
    100%%[0]->[0];
  };
}
`
	path := filepath.Join(dir, "bad.mpc")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	code := run([]string{path}, "", false, false, &out)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "selfcomm") {
		t.Fatalf("missing selfcomm finding:\n%s", out.String())
	}

	// The same violation must surface from a walk of the parent
	// directory, without naming the model.
	out.Reset()
	code = run([]string{dir}, "", false, false, &out)
	if code != 1 {
		t.Fatalf("directory walk exit = %d, want 1; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "selfcomm") {
		t.Fatalf("directory walk missed the model finding:\n%s", out.String())
	}
}

// TestOnlySelectsAnalyzers pins -only: with groupfree excluded, the
// seeded leak must pass, and tagconst passes literal tags that differ.
func TestOnlySelectsAnalyzers(t *testing.T) {
	dir := t.TempDir()
	src := `package scratch

type Group struct{}

type Process struct{}

func (h *Process) GroupCreate(m any) (*Group, error) { return nil, nil }

func (g *Group) Rank() int { return 0 }

func leak(h *Process) {
	g, _ := h.GroupCreate(nil)
	_ = g.Rank()
}

type Comm struct{}

func (c *Comm) Send(dst, tag int, data []byte)  {}
func (c *Comm) Recv(src, tag int) ([]byte, int) { return nil, 0 }

// Tags that never match deadlock at run time; tagconst checks only
// computed tags.
func exchange(c *Comm) {
	c.Send(1, 3, nil)
	_, _ = c.Recv(0, 4)
}
`
	if err := os.WriteFile(filepath.Join(dir, "scratch.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := run([]string{dir}, "tagconst", false, false, &out); code != 0 {
		t.Fatalf("-only tagconst still flagged (exit %d):\n%s", code, out.String())
	}
	if _, err := selectAnalyzers("nosuch"); err == nil {
		t.Fatal("unknown analyzer name must be rejected")
	}
}

// TestJSONGolden pins the machine-readable output: the seeded fixture
// package produces exactly the golden findings, byte for byte.
func TestJSONGolden(t *testing.T) {
	var out bytes.Buffer
	code := run([]string{filepath.Join("testdata", "seed")}, "", false, true, &out)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; output:\n%s", code, out.String())
	}
	golden := filepath.Join("testdata", "seed.golden.json")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != string(want) {
		t.Fatalf("-json output diverged from %s:\n--- got ---\n%s--- want ---\n%s", golden, out.String(), want)
	}
}

// TestJSONCleanTree pins the empty case: a clean tree yields an empty
// JSON array, not null.
func TestJSONCleanTree(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "ok.go"), []byte("package ok\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := run([]string{dir}, "", false, true, &out); code != 0 {
		t.Fatalf("exit = %d, want 0; output:\n%s", code, out.String())
	}
	if strings.TrimSpace(out.String()) != "[]" {
		t.Fatalf("clean tree must emit [], got:\n%s", out.String())
	}
}

// TestFileArgRejected pins that a lone .go file (or any root with
// nothing to analyze) is a usage error, not a silent clean exit.
func TestFileArgRejected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.go")
	if err := os.WriteFile(path, []byte("package x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := run([]string{path}, "", false, false, &out); code != 2 {
		t.Fatalf("file argument: exit = %d, want 2", code)
	}
	if code := run([]string{dir}, "", false, false, &out); code != 0 {
		t.Fatalf("directory with Go source: exit = %d, want 0", code)
	}
}

package pmdl

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"
)

func mustModelFile(t *testing.T, path string) *Model {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ParseModel(string(src))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return m
}

func codesOf(diags []Diag) []string {
	out := make([]string, len(diags))
	for i, d := range diags {
		out[i] = d.Code
	}
	return out
}

// TestLintStructural exercises the findings the checker records — the
// structural pass alone — through the fixtures.
func TestLintStructural(t *testing.T) {
	cases := []struct {
		fixture string
		want    []string // expected codes from the structural pass, in order
	}{
		{"clean.mpc", nil},
		{"selfcomm.mpc", []string{LintSelfComm}},
		{"unusedcoord.mpc", []string{LintUnusedCoord}},
		{"constindex.mpc", []string{LintConstIndex, LintConstIndex}},
		{"targetindex.mpc", []string{LintConstIndex}},
		{"shadowcoord.mpc", []string{LintUnusedCoord}},
		{"seqcycle.mpc", nil},   // graph pass only
		{"linkunused.mpc", nil}, // graph pass only
		{"nolink.mpc", nil},     // graph pass only
		{"noinstance.mpc", nil}, // graph pass only
	}
	for _, tc := range cases {
		t.Run(tc.fixture, func(t *testing.T) {
			m := mustModelFile(t, filepath.Join("testdata", "lint", tc.fixture))
			structural := slices.Clone(m.prog.lints)
			sortDiags(structural)
			got := codesOf(structural)
			if len(got) != len(tc.want) {
				t.Fatalf("got %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("got %v, want %v", got, tc.want)
				}
			}
		})
	}
}

func lintFixture(t *testing.T, name string, args ...any) []Diag {
	t.Helper()
	return Lint(mustModelFile(t, filepath.Join("testdata", "lint", name)), args...)
}

// TestLintFixtures drives the full pipeline (structural + graph lints)
// over every fixture and pins the exact multiset of diagnostic codes.
func TestLintFixtures(t *testing.T) {
	cases := []struct {
		fixture string
		want    []string // expected codes, sorted
	}{
		{"clean.mpc", nil},
		{"selfcomm.mpc", []string{LintSelfComm}},
		{"seqcycle.mpc", []string{LintSeqCycle}},
		{"unusedcoord.mpc", []string{LintUnusedCoord}},
		{"linkunused.mpc", []string{LintLinkUnused, LintLinkUnused}},
		{"nolink.mpc", []string{LintNoLink}},
		{"constindex.mpc", []string{LintConstIndex, LintConstIndex}},
		{"noinstance.mpc", []string{LintNoInstance}},
		{"targetindex.mpc", []string{LintConstIndex}},
		{"shadowcoord.mpc", []string{LintUnusedCoord}},
	}
	for _, tc := range cases {
		t.Run(tc.fixture, func(t *testing.T) {
			diags := lintFixture(t, tc.fixture)
			// A finding reads the same on every run: seqcycle once named
			// whichever processor of the cycle a map iteration met first.
			for i := 0; i < 20; i++ {
				if again := lintFixture(t, tc.fixture); !reflect.DeepEqual(again, diags) {
					t.Fatalf("run %d reports %v, the first run %v", i, again, diags)
				}
			}
			got := codesOf(diags)
			sort.Strings(got)
			want := append([]string{}, tc.want...)
			sort.Strings(want)
			if len(got) == 0 && len(want) == 0 {
				return
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("codes = %v, want %v\ndiags: %v", got, want, diags)
			}
		})
	}
}

// TestLintSeverities pins which codes gate pmc -lint's exit status.
func TestLintSeverities(t *testing.T) {
	errs := map[string]bool{}
	for _, f := range []string{"selfcomm.mpc", "seqcycle.mpc", "noinstance.mpc"} {
		for _, d := range lintFixture(t, f) {
			errs[d.Code] = d.Severity == SevError
		}
	}
	if !errs[LintSelfComm] || !errs[LintSeqCycle] {
		t.Fatalf("selfcomm and seqcycle must be errors: %v", errs)
	}
	if errs[LintNoInstance] {
		t.Fatalf("noinstance must stay advisory: %v", errs)
	}
}

// TestExplicitArgsOverrideAuto verifies that caller-provided arguments
// replace the heuristic instantiation.
func TestExplicitArgsOverrideAuto(t *testing.T) {
	// q=3 avoids the division by zero the auto q=2 hits.
	diags := lintFixture(t, "noinstance.mpc", 2, 3)
	for _, d := range diags {
		if d.Code == LintNoInstance {
			t.Fatalf("explicit args should instantiate cleanly, got %v", diags)
		}
	}
}

// TestShippedModelsLintClean gates the three models of the paper in
// tier-1: a model regression that introduces any lint finding fails here.
func TestShippedModelsLintClean(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "models", "*.mpc"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 3 {
		t.Fatalf("expected the three shipped models, found %v", paths)
	}
	for _, p := range paths {
		t.Run(filepath.Base(p), func(t *testing.T) {
			if diags := Lint(mustModelFile(t, p)); len(diags) != 0 {
				t.Fatalf("shipped model has lint findings:\n%v", diags)
			}
		})
	}
}

func TestAutoInstantiate(t *testing.T) {
	m := mustModelFile(t, filepath.Join("testdata", "lint", "clean.mpc"))
	inst, err := m.AutoInstantiate()
	if err != nil {
		t.Fatal(err)
	}
	if inst.NumProcs != 2 {
		t.Fatalf("NumProcs = %d, want 2 (scalars auto-bind to 2)", inst.NumProcs)
	}
	if inst.CommVolume[0][1] <= 0 || inst.CommVolume[1][0] <= 0 {
		t.Fatalf("expected positive link volumes, got %v", inst.CommVolume)
	}
}

func TestAutoInstantiateFailure(t *testing.T) {
	m := mustModelFile(t, filepath.Join("testdata", "lint", "noinstance.mpc"))
	if _, err := m.AutoInstantiate(); err == nil {
		t.Fatal("expected auto-instantiation to fail (division by zero at q=2)")
	}
}

// TestAutoInstantiateShippedModels pins the heuristic to the shipped model
// set: every model in models/ must instantiate with the automatic small
// arguments, so pmc -lint can analyse them with no -args.
func TestAutoInstantiateShippedModels(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "models", "*.mpc"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no shipped models found: %v", err)
	}
	for _, p := range paths {
		t.Run(filepath.Base(p), func(t *testing.T) {
			m := mustModelFile(t, p)
			inst, err := m.AutoInstantiate()
			if err != nil {
				t.Fatalf("auto-instantiate: %v", err)
			}
			if inst.NumProcs < 2 {
				t.Fatalf("NumProcs = %d, want >= 2", inst.NumProcs)
			}
		})
	}
}

func TestUnrollSchemeStructure(t *testing.T) {
	m := mustModelFile(t, filepath.Join("testdata", "lint", "clean.mpc"))
	inst, err := m.AutoInstantiate()
	if err != nil {
		t.Fatal(err)
	}
	trace, err := inst.unrollScheme()
	if err != nil {
		t.Fatal(err)
	}
	if trace.Par || len(trace.Kids) != 2 {
		t.Fatalf("expected sequential root with 2 phases, got par=%v kids=%d", trace.Par, len(trace.Kids))
	}
	ops := trace.Ops(nil)
	var comms, comps int
	for _, op := range ops {
		if op.Comm() {
			comms++
		} else {
			comps++
		}
	}
	if comms != 2 || comps != 2 {
		t.Fatalf("got %d transfers, %d computations; want 2 and 2", comms, comps)
	}
}

func TestUnrollSchemeSequentialRun(t *testing.T) {
	m := mustModelFile(t, filepath.Join("testdata", "lint", "seqcycle.mpc"))
	inst, err := m.AutoInstantiate()
	if err != nil {
		t.Fatal(err)
	}
	trace, err := inst.unrollScheme()
	if err != nil {
		t.Fatal(err)
	}
	if trace.Par || len(trace.Kids) != 2 {
		t.Fatalf("expected a sequential run of 2 transfers, got par=%v kids=%d", trace.Par, len(trace.Kids))
	}
	for _, k := range trace.Kids {
		if k.Op == nil || !k.Op.Comm() {
			t.Fatalf("expected comm leaves, got %+v", k)
		}
	}
}

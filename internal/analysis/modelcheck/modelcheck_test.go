package modelcheck

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/pmdl"
)

// fixtureDir reuses the lint fixtures of package pmdl: one .mpc per
// diagnostic plus a clean model asserting zero findings.
var fixtureDir = filepath.Join("..", "..", "pmdl", "testdata", "lint")

func lintFixture(t *testing.T, name string) []pmdl.Diag {
	t.Helper()
	src, err := os.ReadFile(filepath.Join(fixtureDir, name))
	if err != nil {
		t.Fatal(err)
	}
	m, err := pmdl.ParseModel(string(src))
	if err != nil {
		t.Fatal(err)
	}
	return Lint(m)
}

// TestLintFixtures drives the full pipeline (structural + graph lints)
// over every fixture and pins the exact multiset of diagnostic codes.
func TestLintFixtures(t *testing.T) {
	cases := []struct {
		fixture string
		want    []string // expected codes, sorted
	}{
		{"clean.mpc", nil},
		{"selfcomm.mpc", []string{pmdl.LintSelfComm}},
		{"seqcycle.mpc", []string{pmdl.LintSeqCycle}},
		{"unusedcoord.mpc", []string{pmdl.LintUnusedCoord}},
		{"linkunused.mpc", []string{pmdl.LintLinkUnused, pmdl.LintLinkUnused}},
		{"nolink.mpc", []string{pmdl.LintNoLink}},
		{"constindex.mpc", []string{pmdl.LintConstIndex, pmdl.LintConstIndex}},
		{"noinstance.mpc", []string{pmdl.LintNoInstance}},
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
			got := make([]string, len(diags))
			for i, d := range diags {
				got[i] = d.Code
			}
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
	for _, d := range lintFixture(t, "selfcomm.mpc") {
		errs[d.Code] = d.Severity == pmdl.SevError
	}
	for _, d := range lintFixture(t, "seqcycle.mpc") {
		errs[d.Code] = d.Severity == pmdl.SevError
	}
	for _, d := range lintFixture(t, "noinstance.mpc") {
		errs[d.Code] = d.Severity == pmdl.SevError
	}
	if !errs[pmdl.LintSelfComm] || !errs[pmdl.LintSeqCycle] {
		t.Fatalf("selfcomm and seqcycle must be errors: %v", errs)
	}
	if errs[pmdl.LintNoInstance] {
		t.Fatalf("noinstance must stay advisory: %v", errs)
	}
}

// TestExplicitArgsOverrideAuto verifies that caller-provided arguments
// replace the heuristic instantiation.
func TestExplicitArgsOverrideAuto(t *testing.T) {
	src, err := os.ReadFile(filepath.Join(fixtureDir, "noinstance.mpc"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := pmdl.ParseModel(string(src))
	if err != nil {
		t.Fatal(err)
	}
	// q=3 avoids the division by zero the auto q=2 hits.
	diags := Lint(m, 2, 3)
	for _, d := range diags {
		if d.Code == pmdl.LintNoInstance {
			t.Fatalf("explicit args should instantiate cleanly, got %v", diags)
		}
	}
}

// TestShippedModelsLintClean gates the three models of the paper in
// tier-1: a model regression that introduces any lint finding fails here.
func TestShippedModelsLintClean(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "..", "models", "*.mpc"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 3 {
		t.Fatalf("expected the three shipped models, found %v", paths)
	}
	for _, p := range paths {
		t.Run(filepath.Base(p), func(t *testing.T) {
			src, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			m, err := pmdl.ParseModel(string(src))
			if err != nil {
				t.Fatal(err)
			}
			if diags := Lint(m); len(diags) != 0 {
				t.Fatalf("shipped model has lint findings:\n%v", diags)
			}
		})
	}
}

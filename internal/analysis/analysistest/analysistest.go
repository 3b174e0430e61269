// Package analysistest runs an analyzer over a fixture directory and
// checks its findings against `// want "substring"` comments, the same
// contract as golang.org/x/tools/go/analysis/analysistest (with substring
// rather than regex matching). Fixtures live under the analyzer's
// testdata/src/<pkg> directory and only need to parse, not compile.
//
// Run analyses one fixture package, which may span several files: every
// .go file of the directory is loaded.
package analysistest

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// Run analyses the fixture directory with the analyzer and reports every
// mismatch between the findings and the want comments as a test error.
// Multi-file fixtures are supported: every .go file of the directory is
// loaded into one package.
func Run(t *testing.T, dir string, a *analysis.Analyzer) {
	t.Helper()
	pkg, err := analysis.LoadDir(dir, true)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	if pkg == nil {
		t.Fatalf("no Go source in %s", dir)
	}
	diags, err := analysis.Run([]*analysis.Package{pkg}, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	type key struct {
		file string
		line int
	}
	wants := make(map[key][]string)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pos := pkg.Fset.Position(c.Pos())
				for _, w := range parseWants(c.Text) {
					k := key{pos.Filename, pos.Line}
					wants[k] = append(wants[k], w)
				}
			}
		}
	}

	matched := make(map[key][]bool)
	for k, ws := range wants {
		matched[k] = make([]bool, len(ws))
	}
	for _, d := range diags {
		k := key{d.Pos.Filename, d.Pos.Line}
		ws, ok := wants[k]
		if !ok {
			t.Errorf("unexpected diagnostic at %s: %s", d.Pos, d.Message)
			continue
		}
		found := false
		for i, w := range ws {
			if !matched[k][i] && strings.Contains(d.Message, w) {
				matched[k][i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("diagnostic at %s does not match any want: %s (wants %q)", d.Pos, d.Message, ws)
		}
	}
	for k, ws := range wants {
		for i, w := range ws {
			if !matched[k][i] {
				t.Errorf("%s:%d: no diagnostic matching %q", k.file, k.line, w)
			}
		}
	}
}

// parseWants extracts the quoted substrings of a `// want "a" "b"`
// comment.
func parseWants(comment string) []string {
	idx := strings.Index(comment, "want ")
	if idx < 0 {
		return nil
	}
	rest := comment[idx+len("want "):]
	var out []string
	for {
		start := strings.Index(rest, `"`)
		if start < 0 {
			break
		}
		end := strings.Index(rest[start+1:], `"`)
		if end < 0 {
			break
		}
		out = append(out, rest[start+1:start+1+end])
		rest = rest[start+end+2:]
	}
	if len(out) == 0 {
		// A malformed want comment should fail loudly, not silently
		// expect nothing.
		return []string{fmt.Sprintf("malformed want comment: %s", comment)}
	}
	return out
}

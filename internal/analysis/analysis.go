// Package analysis is a self-contained static-analysis framework for Go
// source, mirroring the Analyzer/Pass/Diagnostic shape of
// golang.org/x/tools/go/analysis. The build environment vendors no
// third-party modules, so the framework is built on the standard library
// only: packages are parsed (not type-checked) and analyzers work
// syntactically. Analyzers written against this API translate to the
// x/tools API nearly verbatim once that dependency is available, at which
// point cmd/hmpivet can also become a `go vet -vettool=` multichecker.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Analyzer is one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -only filters.
	Name string
	// Doc is the one-line description shown by hmpivet -list.
	Doc string
	// Run analyses one package and reports findings through the pass.
	Run func(*Pass) error
}

// Pass carries one (analyzer, package) unit of work.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the parsed source files of the package, including tests.
	Files []*ast.File
	// Pkg is the package directory relative to the analysis root.
	Pkg string

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Run applies every analyzer to every package and returns the findings
// sorted by position, analyzer and message. A finding is suppressed only
// by a well-formed directive on the reported line naming its analyzer and
// justifying the exception:
//
//	//hmpivet:ignore <name>[,<name>...] -- <reason>
//
// A directive with no analyzer name (a blanket ignore) or no reason is
// itself reported as a finding: the escape hatch must say what it
// disables and why.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		ignored, bad := ignoreLines(pkg)
		diags = append(diags, bad...)
		for _, a := range analyzers {
			var local []Diagnostic
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Dir,
				diags:    &local,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", pkg.Dir, a.Name, err)
			}
			for _, d := range local {
				if names, ok := ignored[lineKey{d.Pos.Filename, d.Pos.Line}]; ok {
					if containsName(names, a.Name) {
						continue
					}
				}
				diags = append(diags, d)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		// One analyzer can make two findings at one position: the message
		// is the last key, so the output is a function of the input alone.
		return a.Message < b.Message
	})
	return diags, nil
}

type lineKey struct {
	file string
	line int
}

// ignoreLines maps source lines carrying a well-formed ignore directive
// to the analyzer list it names, and reports every malformed directive —
// blanket ignores and ignores without a `-- reason` — as a diagnostic
// under the "hmpivet" pseudo-analyzer.
func ignoreLines(pkg *Package) (map[lineKey]string, []Diagnostic) {
	out := make(map[lineKey]string)
	var bad []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				// Only a comment that IS the directive counts; prose that
				// mentions the marker mid-sentence (documentation) does not.
				if !strings.HasPrefix(c.Text, "//hmpivet:ignore") {
					continue
				}
				rest := strings.TrimSpace(c.Text[len("//hmpivet:ignore"):])
				pos := pkg.Fset.Position(c.Pos())
				names, reason, found := strings.Cut(rest, "--")
				names = strings.TrimSpace(names)
				reason = strings.TrimSpace(reason)
				switch {
				case names == "":
					bad = append(bad, Diagnostic{
						Pos: pos, Analyzer: "hmpivet",
						Message: "blanket //hmpivet:ignore is not allowed: name the analyzer(s), as in //hmpivet:ignore <name> -- <reason>",
					})
				case !found || reason == "":
					bad = append(bad, Diagnostic{
						Pos: pos, Analyzer: "hmpivet",
						Message: fmt.Sprintf("//hmpivet:ignore %s needs a justification: //hmpivet:ignore %s -- <reason>", names, names),
					})
				default:
					out[lineKey{pos.Filename, pos.Line}] = names
				}
			}
		}
	}
	return out, bad
}

func containsName(list, name string) bool {
	for _, n := range strings.FieldsFunc(list, func(r rune) bool { return r == ',' || r == ' ' }) {
		if n == name {
			return true
		}
	}
	return false
}

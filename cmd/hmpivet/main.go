// Command hmpivet runs the HMPI static analyzers over Go source trees
// and PMDL performance models. It is a multichecker in the style of go
// vet: each analyzer checks one contract of the HMPI programming model,
// and any finding makes the command exit non-zero. Walking a directory
// root also sweeps every .mpc model below it, so one invocation covers
// both fronts.
//
// Usage:
//
//	hmpivet ./...                      # analyze the tree rooted here, models included
//	hmpivet internal/apps examples     # several roots
//	hmpivet models/jacobi.mpc          # lint one performance model
//	hmpivet -only groupfree,tagconst ./...
//	hmpivet -tests ./...               # include _test.go files
//	hmpivet -json ./...                # machine-readable findings
//	hmpivet -list                      # print the analyzers and exit
//
// A finding is suppressed only by a directive on the reported line that
// names the analyzer and justifies the exception:
//
//	//hmpivet:ignore <name>[,<name>...] -- <reason>
//
// Blanket ignores and ignores without a reason are themselves findings.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/bufalias"
	"repro/internal/analysis/collmatch"
	"repro/internal/analysis/deadlock"
	"repro/internal/analysis/ftcontract"
	"repro/internal/analysis/groupfree"
	"repro/internal/analysis/modelcheck"
	"repro/internal/analysis/reconpure"
	"repro/internal/analysis/reqwait"
	"repro/internal/analysis/runtimeclose"
	"repro/internal/analysis/tagconst"
	"repro/internal/analysis/tracescope"
	"repro/internal/pmdl"
)

// all registers every analyzer the multichecker knows.
var all = []*analysis.Analyzer{
	bufalias.Analyzer,
	collmatch.Analyzer,
	deadlock.Analyzer,
	ftcontract.Analyzer,
	groupfree.Analyzer,
	reconpure.Analyzer,
	reqwait.Analyzer,
	runtimeclose.Analyzer,
	tagconst.Analyzer,
	tracescope.Analyzer,
}

// finding is one diagnostic in the output (text or -json).
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col,omitempty"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func (f finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	tests := flag.Bool("tests", false, "also analyze _test.go files")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array")
	list := flag.Bool("list", false, "print the available analyzers and exit")
	flag.Parse()
	if *list {
		for _, a := range all {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}
	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: hmpivet [-only a,b] [-tests] [-json] <dir|pattern|model.mpc>...")
		os.Exit(2)
	}
	os.Exit(run(args, *only, *tests, *jsonOut, os.Stdout))
}

// run analyzes every argument — a directory (a trailing /... is
// accepted and means the same thing: the walk always recurses, and also
// picks up every .mpc model below the root), or a single .mpc model
// file — and returns the process exit code.
func run(args []string, only string, tests, jsonOut bool, out io.Writer) int {
	analyzers, err := selectAnalyzers(only)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hmpivet: %v\n", err)
		return 2
	}
	var finds []finding
	for _, arg := range args {
		if strings.HasSuffix(arg, ".mpc") {
			finds = append(finds, lintModel(arg)...)
			continue
		}
		root := strings.TrimSuffix(arg, "...")
		root = strings.TrimSuffix(root, "/")
		if root == "" {
			root = "."
		}
		pkgs, err := analysis.Load(root, tests)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hmpivet: %v\n", err)
			return 2
		}
		// A walk root that yields no Go packages is almost always a
		// misuse — e.g. a single .go file passed where a directory is
		// expected — and silently exiting clean would be a lie. A
		// models-only directory is still fine: findModels below finds
		// its .mpc files and analyzed stays true.
		analyzed := len(pkgs) > 0
		diags, err := analysis.Run(pkgs, analyzers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hmpivet: %v\n", err)
			return 2
		}
		for _, d := range diags {
			finds = append(finds, finding{
				File: d.Pos.Filename, Line: d.Pos.Line, Col: d.Pos.Column,
				Analyzer: d.Analyzer, Message: d.Message,
			})
		}
		models, err := findModels(root)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hmpivet: %v\n", err)
			return 2
		}
		for _, m := range models {
			finds = append(finds, lintModel(m)...)
		}
		if !analyzed && len(models) == 0 {
			fmt.Fprintf(os.Stderr, "hmpivet: no Go packages or .mpc models under %q (pass a directory, not a file)\n", arg)
			return 2
		}
	}
	if jsonOut {
		if finds == nil {
			finds = []finding{}
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(finds); err != nil {
			fmt.Fprintf(os.Stderr, "hmpivet: %v\n", err)
			return 2
		}
	} else {
		for _, f := range finds {
			fmt.Fprintf(out, "%s\n", f)
		}
	}
	if len(finds) > 0 {
		return 1
	}
	return 0
}

// findModels walks root for .mpc model files, skipping the directories
// the Go loader skips (testdata, vendor, hidden, underscore-prefixed).
func findModels(root string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".mpc") {
			out = append(out, path)
		}
		return nil
	})
	return out, err
}

func selectAnalyzers(only string) ([]*analysis.Analyzer, error) {
	if only == "" {
		return all, nil
	}
	byName := map[string]*analysis.Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	var picked []*analysis.Analyzer
	names := strings.Split(only, ",")
	sort.Strings(names)
	for _, n := range names {
		n = strings.TrimSpace(n)
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (use -list)", n)
		}
		picked = append(picked, a)
	}
	return picked, nil
}

// lintModel runs the PMDL lints on one model file. Parse failures count
// as a finding: a model that does not parse cannot be vetted.
func lintModel(path string) []finding {
	src, err := os.ReadFile(path)
	if err != nil {
		return []finding{{File: path, Analyzer: "model", Message: err.Error()}}
	}
	m, err := pmdl.ParseModel(string(src))
	if err != nil {
		return []finding{{File: path, Analyzer: "model", Message: err.Error()}}
	}
	var out []finding
	for _, d := range modelcheck.Lint(m) {
		out = append(out, finding{
			File: path, Line: d.Pos.Line, Col: d.Pos.Col,
			Analyzer: "model:" + d.Code,
			Message:  fmt.Sprintf("%s: %s", d.Severity, d.Message),
		})
	}
	return out
}

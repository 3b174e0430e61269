// Command pmc is the performance-model compiler: it parses a model written
// in HMPI's performance definition language, reports diagnostics, and can
// instantiate the model with actual parameters to show the derived
// per-processor computation volumes, pairwise communication volumes and
// task-graph size — the information HMPI_Group_create and HMPI_Timeof
// consume.
//
// Usage:
//
//	pmc model.mpc                          # parse and describe
//	pmc -args '3,100,[10,20,30],...' model.mpc   # instantiate too
//	pmc -lint model.mpc                    # static lints; exit 1 on errors
//	pmc -lint=warn model.mpc               # advisory: print but exit 0
//
// Arguments are comma-separated; arrays use JSON syntax and nest to any
// depth ([..] / [[..],[..]] ...).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/pmdl"
)

// lintMode lets -lint act as both a boolean switch (`-lint`, meaning
// "err") and a valued flag (`-lint=warn`, `-lint=off`).
type lintMode string

func (m *lintMode) String() string   { return string(*m) }
func (m *lintMode) IsBoolFlag() bool { return true }
func (m *lintMode) Set(v string) error {
	switch v {
	case "true", "err", "error":
		*m = "err"
	case "warn":
		*m = "warn"
	case "false", "off":
		*m = "off"
	default:
		return fmt.Errorf("invalid -lint mode %q (want err, warn or off)", v)
	}
	return nil
}

func main() {
	argsFlag := flag.String("args", "", "actual parameters: JSON array, e.g. '[3,100,[10,20,30]]'")
	dumpDAG := flag.Bool("dag", false, "also build the scheme task graph (needs -args)")
	format := flag.Bool("fmt", false, "print the model reformatted to canonical form and exit")
	genPkg := flag.String("gen", "", "emit a Go file embedding the model for the given package and exit")
	lint := lintMode("off")
	flag.Var(&lint, "lint", "run static lints and exit; bare -lint (or -lint=err) exits 1 on error-severity findings, -lint=warn prints findings but always exits 0")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: pmc [-args '[...]'] [-dag] [-lint[=err|warn]] model.mpc")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	model, err := pmdl.ParseModel(string(src))
	if err != nil {
		fatal(err)
	}
	if lint != "off" {
		os.Exit(runLint(model, flag.Arg(0), *argsFlag, lint == "warn"))
	}
	if *format {
		fmt.Print(pmdl.Format(model.File))
		return
	}
	if *genPkg != "" {
		out, err := generateGo(*genPkg, flag.Arg(0), model)
		if err != nil {
			fatal(err)
		}
		fmt.Print(out)
		return
	}
	alg := model.File.Algorithm
	fmt.Printf("algorithm %s\n", alg.Name)
	fmt.Printf("  parameters: %d\n", len(alg.Params))
	for _, p := range alg.Params {
		dims := ""
		for range p.Dims {
			dims += "[]"
		}
		fmt.Printf("    %s %s%s\n", p.Type, p.Name, dims)
	}
	fmt.Printf("  coordinates: %d\n", len(alg.Coords))
	fmt.Printf("  node clauses: %d\n", len(alg.Nodes))
	if alg.Link != nil {
		fmt.Printf("  link clauses: %d\n", len(alg.Link.Clauses))
	}

	if *argsFlag == "" {
		return
	}
	var raw []any
	if err := json.Unmarshal([]byte(*argsFlag), &raw); err != nil {
		fatal(fmt.Errorf("parsing -args: %w", err))
	}
	args := make([]any, len(raw))
	for i, v := range raw {
		args[i] = convertArg(v)
	}
	inst, err := model.Instantiate(args...)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\ninstance: %d abstract processors (dims %v), parent %d\n",
		inst.NumProcs, inst.Dims, inst.Parent)
	fmt.Printf("  computation volumes (benchmark units):\n")
	for p, v := range inst.CompVolume {
		fmt.Printf("    P%v: %.6g\n", inst.CoordsOf(p), v)
	}
	fmt.Printf("  total communication volume: %.6g bytes\n", inst.TotalCommVolume())
	for src := 0; src < inst.NumProcs; src++ {
		for dst := 0; dst < inst.NumProcs; dst++ {
			if inst.CommVolume[src][dst] > 0 {
				fmt.Printf("    %v -> %v: %.6g bytes\n",
					inst.CoordsOf(src), inst.CoordsOf(dst), inst.CommVolume[src][dst])
			}
		}
	}
	if *dumpDAG {
		dag, err := inst.BuildDAG()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("  scheme task graph: %d tasks\n", dag.Size())
	}
}

// runLint prints every lint finding for the model and returns the
// process exit code: 1 when an error-severity finding exists and the
// mode is not advisory, 0 otherwise.
func runLint(model *pmdl.Model, path, argsJSON string, advisory bool) int {
	var args []any
	if argsJSON != "" {
		var raw []any
		if err := json.Unmarshal([]byte(argsJSON), &raw); err != nil {
			fatal(fmt.Errorf("parsing -args: %w", err))
		}
		args = make([]any, len(raw))
		for i, v := range raw {
			args[i] = convertArg(v)
		}
	}
	diags := pmdl.Lint(model, args...)
	hasErr := false
	for _, d := range diags {
		if d.Severity == pmdl.SevError {
			hasErr = true
		}
		fmt.Printf("%s:%s\n", path, d)
	}
	if hasErr && !advisory {
		return 1
	}
	return 0
}

// convertArg turns decoded JSON into the int / nested []int values the
// model binder accepts.
func convertArg(v any) any {
	switch x := v.(type) {
	case float64:
		if x == float64(int(x)) {
			return int(x)
		}
		return x
	case []any:
		return convertArray(x)
	default:
		return v
	}
}

// convertArray converts a JSON array into []int, [][]int, ... by depth.
func convertArray(xs []any) any {
	if len(xs) == 0 {
		return []int{}
	}
	switch xs[0].(type) {
	case float64:
		out := make([]int, len(xs))
		for i, v := range xs {
			out[i] = int(v.(float64))
		}
		return out
	case []any:
		switch inner := convertArray(xs[0].([]any)).(type) {
		case []int:
			out := make([][]int, len(xs))
			for i, v := range xs {
				out[i] = convertArray(v.([]any)).([]int)
			}
			return out
		case [][]int:
			_ = inner
			out := make([][][]int, len(xs))
			for i, v := range xs {
				out[i] = convertArray(v.([]any)).([][]int)
			}
			return out
		case [][][]int:
			out := make([][][][]int, len(xs))
			for i, v := range xs {
				out[i] = convertArray(v.([]any)).([][][]int)
			}
			return out
		}
	}
	return xs
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "pmc: %v\n", err)
	os.Exit(1)
}

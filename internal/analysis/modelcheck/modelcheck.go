// Package modelcheck holds the communication-graph lints for PMDL
// performance models: the checks that need an instantiated model and a
// symbolically unrolled scheme rather than the AST alone. Together with
// the structural lints of package pmdl it forms the `pmc -lint` and
// hmpivet model front.
//
// The analysis instantiates the model with heuristic small arguments
// (pmdl.AutoInstantiate) unless explicit arguments are given, unrolls the
// scheme into a series-parallel trace (pmdl.UnrollScheme), and checks:
//
//   - selfcomm: a transfer whose evaluated source and destination are the
//     same abstract processor;
//   - seqcycle: consecutive transfers of one sequential scheme segment
//     form a directed cycle. The scheme's global order is consistent, but
//     an SPMD lowering in which each process issues the segment's sends
//     before its receives — the natural compilation when the actions are
//     treated as independent — deadlocks under rendezvous semantics;
//   - linkunused: an ordered pair has declared link volume, yet the
//     scheme never transfers between the pair (the model charges
//     HMPI_Timeof for traffic the algorithm never performs);
//   - nolink: the scheme transfers between a pair with no declared link
//     volume (the transfer costs nothing in the model, hiding real
//     traffic from group selection).
package modelcheck

import (
	"fmt"
	"sort"

	"repro/internal/pmdl"
)

// Lint runs every model lint: the structural pass of package pmdl plus
// the communication-graph pass over a small instantiation. Explicit
// instantiation arguments override the automatic ones; when
// instantiation or unrolling fails, the graph lints are skipped and a
// single advisory noinstance diagnostic explains why.
func Lint(m *pmdl.Model, args ...any) []pmdl.Diag {
	diags := pmdl.Lint(m)

	var inst *pmdl.Instance
	var err error
	if len(args) > 0 {
		inst, err = m.Instantiate(args...)
	} else {
		inst, err = m.AutoInstantiate()
	}
	if err != nil {
		diags = append(diags, pmdl.Diag{
			Code: pmdl.LintNoInstance, Severity: pmdl.SevWarn,
			Message: "communication-graph lints skipped: " + err.Error() + " (pass explicit -args)",
		})
		pmdl.SortDiags(diags)
		return diags
	}
	trace, err := inst.UnrollScheme()
	if err != nil {
		diags = append(diags, pmdl.Diag{
			Code: pmdl.LintNoInstance, Severity: pmdl.SevWarn,
			Message: "communication-graph lints skipped: scheme unrolling failed: " + err.Error(),
		})
		pmdl.SortDiags(diags)
		return diags
	}
	// The structural pass may already have flagged an action as a self
	// transfer; drop the dynamic duplicate at the same position.
	structSelf := make(map[pmdl.Pos]bool)
	for _, d := range diags {
		if d.Code == pmdl.LintSelfComm {
			structSelf[d.Pos] = true
		}
	}
	for _, d := range Check(inst, trace) {
		if d.Code == pmdl.LintSelfComm && structSelf[d.Pos] {
			continue
		}
		diags = append(diags, d)
	}
	diags = dedupe(diags)
	pmdl.SortDiags(diags)
	return diags
}

// Check runs the communication-graph lints over an unrolled instance.
func Check(inst *pmdl.Instance, trace *pmdl.TraceNode) []pmdl.Diag {
	var diags []pmdl.Diag

	ops := trace.Ops(nil)
	exercised := make(map[[2]int]bool)
	selfAt := make(map[pmdl.Pos]bool)
	nolinkAt := make(map[pmdl.Pos]bool)
	for _, op := range ops {
		if !op.Comm() {
			continue
		}
		if op.Src == op.Dst {
			if !selfAt[op.Pos] {
				selfAt[op.Pos] = true
				diags = append(diags, pmdl.Diag{
					Pos: op.Pos, Code: pmdl.LintSelfComm, Severity: pmdl.SevError,
					Message: sprintfCoords(inst, "communication action evaluates to a self transfer on processor %v", op.Src),
				})
			}
			continue
		}
		exercised[[2]int{op.Src, op.Dst}] = true
		if inst.CommVolume[op.Src][op.Dst] == 0 && !nolinkAt[op.Pos] {
			nolinkAt[op.Pos] = true
			diags = append(diags, pmdl.Diag{
				Pos: op.Pos, Code: pmdl.LintNoLink, Severity: pmdl.SevWarn,
				Message: sprintfPair(inst, "scheme transfers %v -> %v but the link section declares no volume for the pair", op.Src, op.Dst),
			})
		}
	}

	linkPos := pmdl.Pos{}
	if l := inst.Model.File.Algorithm.Link; l != nil {
		linkPos = l.Pos
	}
	for src := 0; src < inst.NumProcs; src++ {
		for dst := 0; dst < inst.NumProcs; dst++ {
			if inst.CommVolume[src][dst] > 0 && !exercised[[2]int{src, dst}] {
				diags = append(diags, pmdl.Diag{
					Pos: linkPos, Code: pmdl.LintLinkUnused, Severity: pmdl.SevWarn,
					Message: sprintfPair(inst, "link declares volume for %v -> %v but the scheme never transfers between the pair", src, dst),
				})
			}
		}
	}

	diags = append(diags, checkSeqCycles(inst, trace)...)
	return diags
}

// checkSeqCycles finds directed cycles among maximal runs of consecutive
// transfer leaves in sequential compositions.
func checkSeqCycles(inst *pmdl.Instance, n *pmdl.TraceNode) []pmdl.Diag {
	var diags []pmdl.Diag
	var visit func(*pmdl.TraceNode)
	visit = func(n *pmdl.TraceNode) {
		if n == nil || n.Op != nil {
			return
		}
		if !n.Par {
			var run []*pmdl.TraceOp
			flush := func() {
				if len(run) > 1 {
					if d, ok := cycleDiag(inst, run); ok {
						diags = append(diags, d)
					}
				}
				run = nil
			}
			for _, k := range n.Kids {
				if k.Op != nil && k.Op.Comm() && k.Op.Src != k.Op.Dst {
					run = append(run, k.Op)
					continue
				}
				flush()
			}
			flush()
		}
		for _, k := range n.Kids {
			visit(k)
		}
	}
	visit(n)
	return diags
}

// cycleDiag reports whether the run's transfer edges contain a directed
// cycle, and if so builds the diagnostic.
func cycleDiag(inst *pmdl.Instance, run []*pmdl.TraceOp) (pmdl.Diag, bool) {
	adj := make(map[int][]int)
	for _, op := range run {
		adj[op.Src] = append(adj[op.Src], op.Dst)
	}
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[int]int)
	var cycleNode = -1
	var dfs func(v int) bool
	dfs = func(v int) bool {
		color[v] = grey
		for _, w := range adj[v] {
			if color[w] == grey {
				cycleNode = w
				return true
			}
			if color[w] == white && dfs(w) {
				return true
			}
		}
		color[v] = black
		return false
	}
	// Sorted starts: which processor of a cycle the message names must not
	// depend on map iteration order.
	starts := make([]int, 0, len(adj))
	for v := range adj {
		starts = append(starts, v)
	}
	sort.Ints(starts)
	for _, v := range starts {
		if color[v] == white && dfs(v) {
			break
		}
	}
	if cycleNode < 0 {
		return pmdl.Diag{}, false
	}
	return pmdl.Diag{
		Pos: run[0].Pos, Code: pmdl.LintSeqCycle, Severity: pmdl.SevError,
		Message: sprintfCoords(inst,
			"consecutive transfers in a sequential scheme segment form a cycle through processor %v; "+
				"a rendezvous send-first lowering of this segment deadlocks", cycleNode),
	}, true
}

func sprintfCoords(inst *pmdl.Instance, format string, proc int) string {
	return fmt.Sprintf(format, inst.CoordsOf(proc))
}

func sprintfPair(inst *pmdl.Instance, format string, src, dst int) string {
	return fmt.Sprintf(format, inst.CoordsOf(src), inst.CoordsOf(dst))
}

// dedupe removes exact duplicate findings.
func dedupe(diags []pmdl.Diag) []pmdl.Diag {
	type key struct {
		code string
		pos  pmdl.Pos
		msg  string
	}
	seen := make(map[key]bool, len(diags))
	out := diags[:0]
	for _, d := range diags {
		k := key{d.Code, d.Pos, d.Message}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, d)
	}
	return out
}

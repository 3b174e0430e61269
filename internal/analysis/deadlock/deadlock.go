// Package deadlock looks for cyclic blocking receive patterns between
// the rank-guarded paths of one function. The classic head-to-head:
//
//	if rank == 0 {
//		comm.Recv(1, tag) // waits for 1, who is waiting for 0
//		comm.Send(1, tag, b)
//	} else if rank == 1 {
//		comm.Recv(0, tag)
//		comm.Send(0, tag, b)
//	}
//
// Sends in this runtime complete without waiting for the receiver
// (buffered), so the analysis replays each pair of literal-rank branches
// with non-blocking sends and blocking receives: if both paths end up
// blocked on a Recv whose matching send lies after the other path's own
// blocked Recv, no execution order can make progress and the pair is
// reported.
//
// The analysis is deliberately conservative about what it cannot see: a
// receive from a peer outside the branch pair, or with a non-literal
// source, is assumed to be satisfied externally; unknown (non-literal,
// textually different) tags are assumed to match. Only a provable cycle
// between the two replayed paths is reported.
package deadlock

import (
	"go/ast"
	"go/token"
	"strconv"

	"repro/internal/analysis"
)

// Analyzer is the deadlock check.
var Analyzer = &analysis.Analyzer{
	Name: "deadlock",
	Doc:  "report head-to-head blocking receives between rank-guarded paths of one function",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	// Nested function literals are visited both from the enclosing
	// declaration's walk and as their own body; reported dedupes.
	reported := make(map[token.Pos]bool)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkBody(pass, fn.Body, reported)
				}
			case *ast.FuncLit:
				checkBody(pass, fn.Body, reported)
			}
			return true
		})
	}
	return nil
}

// op is one point-to-point operation of a branch, in source order.
type op struct {
	send bool
	// peer is the literal rank operand (dst for sends, src for
	// receives), or -1 when non-literal.
	peer int
	// tag is the textual tag operand; receives and sends match when the
	// texts are equal or either side is non-literal ("" is never
	// produced; unknownTag marks unparseable operands).
	tag     string
	literal bool // tag is an integer literal (mismatching literals never match)
	pos     token.Pos
}

// branch is one literal-rank guarded path.
type branch struct {
	rank int // the literal rank, >= 0
	ops  []op
}

func checkBody(pass *analysis.Pass, body *ast.BlockStmt, reported map[token.Pos]bool) {
	du := analysis.NewDefUse(body)
	ast.Inspect(body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		branches := rankBranches(du, ifs)
		if len(branches) < 2 {
			return true
		}
		for i := 0; i < len(branches); i++ {
			for j := i + 1; j < len(branches); j++ {
				simulate(pass, branches[i], branches[j], reported)
			}
		}
		// The chain has been handled as a unit; don't revisit the
		// else-if links as their own roots.
		return false
	})
}

// rankBranches flattens an if/else-if chain whose conditions compare a
// rank-dependent expression against integer literals. A chain link whose
// condition is not such a comparison ends the collection: only branches
// with a known literal rank take part in the replay.
func rankBranches(du *analysis.DefUse, ifs *ast.IfStmt) []branch {
	var out []branch
	for {
		lit, ok := rankLiteral(du, ifs.Cond)
		if !ok {
			return out
		}
		out = append(out, branch{rank: lit, ops: branchOps(ifs.Body)})
		switch e := ifs.Else.(type) {
		case *ast.IfStmt:
			ifs = e
		default:
			return out
		}
	}
}

// rankLiteral matches `rankExpr == N` (either operand order) where
// rankExpr is data-dependent on a Rank() call.
func rankLiteral(du *analysis.DefUse, cond ast.Expr) (int, bool) {
	be, ok := cond.(*ast.BinaryExpr)
	if !ok || be.Op != token.EQL {
		return 0, false
	}
	if n, ok := intLit(be.Y); ok && du.Tainted(be.X, analysis.RankSource) {
		return n, true
	}
	if n, ok := intLit(be.X); ok && du.Tainted(be.Y, analysis.RankSource) {
		return n, true
	}
	return 0, false
}

func intLit(e ast.Expr) (int, bool) {
	bl, ok := e.(*ast.BasicLit)
	if !ok || bl.Kind != token.INT {
		return 0, false
	}
	n, err := strconv.Atoi(bl.Value)
	if err != nil {
		return 0, false
	}
	return n, true
}

// branchOps flattens the Send/Recv calls of a branch body in source
// order. Nested function literals are skipped: their execution point is
// unknown.
func branchOps(body ast.Node) []op {
	var out []op
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := analysis.CalleeName(call)
		switch name {
		case "Send":
			if len(call.Args) >= 2 {
				out = append(out, mkOp(true, call))
			}
		case "Recv":
			if len(call.Args) >= 2 {
				out = append(out, mkOp(false, call))
			}
		}
		return true
	})
	return out
}

func mkOp(send bool, call *ast.CallExpr) op {
	o := op{send: send, peer: -1, pos: call.Pos()}
	if n, ok := intLit(call.Args[0]); ok {
		o.peer = n
	}
	if n, ok := intLit(call.Args[1]); ok {
		o.tag = strconv.Itoa(n)
		o.literal = true
	} else if id, ok := call.Args[1].(*ast.Ident); ok {
		o.tag = id.Name
	} else if sel, ok := call.Args[1].(*ast.SelectorExpr); ok {
		o.tag = sel.Sel.Name
	} else {
		o.tag = unknownTag
	}
	return o
}

const unknownTag = "\x00?"

// tagsMatch applies the conservative tag rule: equal texts match;
// differing integer literals never match; anything else (named
// constants, expressions) might be equal at run time, so it matches.
func tagsMatch(a, b op) bool {
	if a.tag == b.tag {
		return true
	}
	return !(a.literal && b.literal)
}

// simulate replays the two paths with buffered sends and blocking
// receives and reports when neither can advance.
func simulate(pass *analysis.Pass, a, b branch, reported map[token.Pos]bool) {
	ia, ib := 0, 0
	var sentA, sentB []op // sends addressed to the sibling, not yet received
	for {
		progA := advance(&ia, a.ops, a.rank, b.rank, &sentB, &sentA)
		progB := advance(&ib, b.ops, b.rank, a.rank, &sentA, &sentB)
		if !progA && !progB {
			break
		}
	}
	blockedA := ia < len(a.ops) && !a.ops[ia].send && a.ops[ia].peer == b.rank
	blockedB := ib < len(b.ops) && !b.ops[ib].send && b.ops[ib].peer == a.rank
	if blockedA && blockedB && !reported[a.ops[ia].pos] {
		reported[a.ops[ia].pos] = true
		pass.Reportf(a.ops[ia].pos,
			"head-to-head receive deadlock: rank %d blocks in Recv(%d, %s) while rank %d blocks in Recv(%d, %s); no interleaving lets either proceed",
			a.rank, a.ops[ia].peer, tagText(a.ops[ia]),
			b.rank, b.ops[ib].peer, tagText(b.ops[ib]))
	}
}

// advance walks one path as far as it can go, buffering sends addressed
// to the sibling into outbox and consuming the sibling's inbox for
// receives. A receive from outside the pair (or from an unknown source)
// is assumed satisfied externally and stepped over.
func advance(i *int, ops []op, self, peer int, inbox, outbox *[]op) bool {
	progressed := false
	for *i < len(ops) {
		o := ops[*i]
		if o.send {
			if o.peer == peer || o.peer == -1 {
				*outbox = append(*outbox, o)
			}
			*i++
			progressed = true
			continue
		}
		if o.peer != peer {
			*i++
			progressed = true
			continue
		}
		matched := false
		for k, s := range *inbox {
			if (s.peer == self || s.peer == -1) && tagsMatch(s, o) {
				*inbox = append((*inbox)[:k], (*inbox)[k+1:]...)
				matched = true
				break
			}
		}
		if !matched {
			return progressed
		}
		*i++
		progressed = true
	}
	return progressed
}

func tagText(o op) string {
	if o.tag == unknownTag {
		return "?"
	}
	return o.tag
}

package analysis

// The call vocabulary the analyzers share: how a call names its callee,
// and which communicator operations need their peers. The framework is
// parse-only (no type checking), so calls are matched by name.

import "go/ast"

// CalleeName extracts the bare callee name of a call expression: `f(x)`
// yields "f", `pkg.F(x)` and `recv.M(x)` yield the selector name. Calls
// through computed expressions yield "".
func CalleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// CollectiveOps are the communicator operations that every member of a
// communicator must call in the same order. The runtime reports the
// deadlock a mismatched order causes, and hmpiverify's collseq check
// compares the members' sequences.
var CollectiveOps = map[string]bool{
	"Barrier":       true,
	"Bcast":         true,
	"Reduce":        true,
	"Allreduce":     true,
	"Gather":        true,
	"Scatter":       true,
	"Allgather":     true,
	"Alltoall":      true,
	"ReduceScatter": true,
	"Scan":          true,
	"Exscan":        true,
	"AgreeFailed":   true,
	"AgreeVote":     true,
}

// PointToPointOps are the communicator operations between two ranks.
var PointToPointOps = map[string]bool{
	"Send": true, "Isend": true, "IsendOwned": true,
	"Recv": true, "Irecv": true, "Sendrecv": true,
	"Probe": true, "Iprobe": true,
}

// IsCommOp reports whether name is an operation that needs its peers
// alive and participating: point-to-point, or a collective other than the
// failure-tolerant agreements. reconpure and ftcontract ban these in the
// places they guard; this is the one list both analyzers read.
func IsCommOp(name string) bool {
	return PointToPointOps[name] || CollectiveOps[name] && name != "AgreeFailed" && name != "AgreeVote"
}

// Package reqwait checks the nonblocking-request lifecycle: every
// *Request bound from Isend, IsendOwned or Irecv must reach a Wait, Test,
// WaitAll or WaitAny on the paths the analysis can follow. A request that is never completed leaks its payload and — for
// receives — leaves the matched envelope claimed forever; its virtual
// time is never charged, so the simulated makespan silently under-counts
// the communication.
//
// Only requests bound to a variable are tracked. A start call whose
// result is discarded as a statement (`comm.Isend(...)` alone, or
// assigned to `_`) is deliberate fire-and-forget — the sender's Isend has
// already charged its overhead and the transfer completes on its own —
// and is the accepted idiom for one-way pushes, so the table has no
// Discarded message.
//
// The check is the shared lifetime walk (analysis.Lifetime) over the
// request handle table. A request appended to a slice escapes — the
// WaitAll-over-a-slice idiom lands there.
package reqwait

import "repro/internal/analysis"

var lifetime = analysis.Lifetime{
	Handle: analysis.RequestHandle,
	Never:  "request from %s is never completed: missing Wait or Test",
	Return: "request from %s may be left pending: return without Wait on this path",
}

// Analyzer is the reqwait check.
var Analyzer = &analysis.Analyzer{
	Name: "reqwait",
	Doc:  "report nonblocking requests bound from Isend/Irecv/... but not completed with Wait/Test on all analysable paths",
	Run:  lifetime.Check,
}

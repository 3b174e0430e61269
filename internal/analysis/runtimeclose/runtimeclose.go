// Package runtimeclose checks the per-job runtime lifecycle: every
// Runtime obtained from hmpi.New must reach Finalize on the paths the
// analysis can follow. The discipline matters most for long-running
// processes — hmpid's whole design is New → Run → Finalize per job, never
// per process — where a runtime that never reaches Finalize keeps its
// world, cluster clone and estimator state reachable for the life of the
// daemon, and a later audit cannot tell a job still running from one that
// leaked.
//
// The check is the shared lifetime walk (analysis.Lifetime) over the
// runtime handle table. Finalize is idempotent and safe to defer
// immediately, so `defer rt.Finalize()` next to New releases the handle
// before any later return is crossed — which is why return-path reporting
// costs structured shutdown code nothing. Discarding the result entirely
// (`hmpi.New(cfg)` as a statement or an `_` binding) is reported outright:
// a runtime nothing references can never be finalized.
package runtimeclose

import "repro/internal/analysis"

var lifetime = analysis.Lifetime{
	Handle:    analysis.RuntimeHandle,
	Never:     "runtime from %s is never finalized: missing Finalize (defer it next to New)",
	Return:    "runtime from %s may leak: return without Finalize on this path (defer it next to New)",
	Discarded: "result of %s discarded: the runtime can never reach Finalize",
}

// Analyzer is the runtimeclose check.
var Analyzer = &analysis.Analyzer{
	Name: "runtimeclose",
	Doc:  "report runtimes from hmpi.New that never reach Finalize and never escape",
	Run:  lifetime.Check,
}

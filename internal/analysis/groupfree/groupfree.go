// Package groupfree checks the HMPI group lifecycle: every Group obtained
// from GroupCreate, GroupCreateChild or GroupRecreate must reach a
// GroupFree on the paths the analysis can follow. A leaked group pins its
// member processes busy forever — later GroupCreate calls then select from
// a shrunken free pool, silently degrading placement.
//
// The check is the shared lifetime walk (analysis.Lifetime) over the group
// handle table: GroupRecreate(old, ...) consumes its old group, a return
// guarded by the group variable or its paired error is the nil-handle
// path, and helpers are judged by their analysis.Program summaries.
package groupfree

import "repro/internal/analysis"

var lifetime = analysis.Lifetime{
	Handle: analysis.GroupHandle,
	Never:  "result of %s is never freed: missing GroupFree",
	Return: "group from %s may leak: return without GroupFree on this path",
}

// Analyzer is the groupfree check.
var Analyzer = &analysis.Analyzer{
	Name: "groupfree",
	Doc:  "report HMPI groups created but not released with GroupFree on all analysable paths",
	Run:  lifetime.Check,
}

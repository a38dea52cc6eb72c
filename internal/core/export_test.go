package core

import (
	"repro/internal/xmldoc"
	"repro/internal/xq"
)

// DisableMirror forces every batched membership query of the engine
// over the wire MemberBatch path, skipping the prefetch mirror. The
// reconcile tests use it to pin the wire protocol's behavior in
// isolation (normally the mirror answers first and the wire path only
// carries queries the prefetch could not cover).
func DisableMirror(e *Engine) { e.noMirror = true }

// RootPathTable exposes the engine's root-path table — the sorted path
// keys, their label sequences and their nodes — for the differential
// test against the document-walk oracle.
func RootPathTable(e *Engine) (keys []string, labels map[string][]string, nodes map[string][]*xmldoc.Node) {
	return e.pathKeys, e.pathLabels, e.pathIndex
}

// EvalIndex returns the index the engine's evaluator reads.
func EvalIndex(e *Engine) *xq.Index { return e.eval.Index() }

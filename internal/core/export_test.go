package core

import (
	"strings"

	"repro/internal/angluin"
	"repro/internal/pathre"
	"repro/internal/xmldoc"
	"repro/internal/xq"
)

// RootPathTable renders the engine's root-path table in the string-keyed
// form it replaced — the path keys in iteration order, their label
// sequences and their nodes — for the differential test against the
// document-walk oracle.
func RootPathTable(e *Engine) (keys []string, labels map[string][]string, nodes map[string][]*xmldoc.Node) {
	ix := e.eval.Index()
	labels, nodes = map[string][]string{}, map[string][]*xmldoc.Node{}
	for _, g := range ix.SortedRootPaths() {
		w := ix.RootPathLabels(g)
		k := strings.Join(w, "\x00")
		keys = append(keys, k)
		labels[k] = w
		nodes[k] = ix.RootPathNodes(g)
	}
	return keys, labels, nodes
}

// EngineWords returns an empty word trie over the engine's symbol table
// and alphabet — the trie a fragment learner runs on.
func EngineWords(e *Engine) *angluin.Words { return angluin.NewWords(e.syms, e.alphabet) }

// RootPathLookup returns the engine's path-group lookup by word ID over
// words, memoized the way a fragment learner's is.
func RootPathLookup(e *Engine, words *angluin.Words) func(id int32) []*xmldoc.Node {
	g := &pathGroups{ix: e.eval.Index(), docSym: e.docSym, words: words}
	return g.nodes
}

// EvalIndex returns the index the engine's evaluator reads.
func EvalIndex(e *Engine) *xq.Index { return e.eval.Index() }

// ObserveLearnedPaths calls f with every path DFA the engine's fragment
// learners return, before it is trimmed to the realized paths.
func ObserveLearnedPaths(e *Engine, f func(*pathre.DFA)) { e.learnedHook = f }

package artifacts

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"repro/internal/angluin"
	"repro/internal/datagraph"
	"repro/internal/xmldoc"
	"repro/internal/xq"
)

// Bundle groups the immutable artifacts every session learning against
// one spec shares: the canonical parsed document, its evaluator index,
// the canonical ground-truth tree, and the cross-session memo of the
// teacher's pinned extents. All four are safe for concurrent readers;
// Extents is internally synchronized and is the only field with
// interior mutability. A store publishes bundles under their Hash; a
// bundle built by NewBundle is private to one session and has an empty
// Hash.
//
// Sharing discipline: sessions must use Doc (not a re-parse) so node
// identities agree, and teachers sharing Extents must evaluate Truth
// (the same tree pointer) because the memo is keyed by query-node
// identity.
type Bundle struct {
	Doc     *xmldoc.Document
	Index   *xq.Index
	Truth   *xq.Tree
	Extents *xq.SharedExtents
	// Plan is the compiled plan set for Truth over Doc — bundles are
	// immutable and content-addressed, so every session sharing the
	// bundle reuses one compilation (adopted via xq.Evaluator.AdoptPlan;
	// sound for the same reason Extents sharing is: the bundle's tree is
	// never mutated).
	Plan *xq.TreePlan
	// Graph is the default-config data graph over Doc — immutable after
	// datagraph.New, so sessions running with the default graph bounds
	// (the common case) adopt it via core.WithSharedGraph instead of
	// rebuilding the value buckets per session. Engines running with
	// non-default bounds ignore it and build their own.
	Graph *datagraph.Graph
	// Syms is the learner symbol table pre-seeded with Doc's alphabet —
	// concurrency-safe and append-only, so every session sharing the
	// bundle (adopted via core.WithSharedSymbols) resolves the
	// document's labels against one intern instead of re-interning them
	// per fragment learner.
	Syms *angluin.SymbolTable
	// Hash is the store key the bundle was published under, empty for a
	// session-private bundle.
	Hash string
}

// SpecKey derives the content hash for a wire-level session spec: the
// verbatim source XML, target DTD, and ground-truth query texts,
// length-prefixed so no concatenation of fields collides with another
// split of the same bytes.
func SpecKey(sourceXML, targetDTD, truthQuery string) string {
	h := sha256.New()
	for _, part := range []string{"spec", sourceXML, targetDTD, truthQuery} {
		fmt.Fprintf(h, "%d\x00", len(part))
		h.Write([]byte(part))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ScenarioKey derives the store key for an embedded benchmark scenario,
// whose artifacts are identified by the scenario ID rather than by
// content (the embedded sources are fixed at compile time).
func ScenarioKey(id string) string {
	sum := sha256.Sum256([]byte("scenario\x00" + id))
	return hex.EncodeToString(sum[:])
}

// Bundle resolves the artifact bundle stored under key, building the
// document and ground-truth tree with the given constructors on a miss.
// The index is resolved through IndexFor, so bundles whose constructors
// return the same document instance (as the embedded benchmark suites
// do) share one index build across distinct keys.
func (s *Store) Bundle(ctx context.Context, key string, doc func() (*xmldoc.Document, error), truth func() (*xq.Tree, error)) (*Bundle, error) {
	compiled := false
	v, err := s.Get(ctx, key, func(ctx context.Context) (any, int64, error) {
		d, err := doc()
		if err != nil {
			return nil, 0, fmt.Errorf("parse document: %w", err)
		}
		t, err := truth()
		if err != nil {
			return nil, 0, fmt.Errorf("parse truth query: %w", err)
		}
		compiled = true
		b := newBundle(s.IndexFor(d), t)
		b.Hash = key
		return b, approxBundleBytes(d) + int64(b.Plan.ApproxBytes()), nil
	})
	if err != nil {
		return nil, err
	}
	// Counted like IndexFor: a resolution that compiled is a miss, one
	// that reused the published bundle's plan (and its symbol table) is
	// a hit.
	if compiled {
		s.planMisses.Add(1)
		s.symMisses.Add(1)
	} else {
		s.planHits.Add(1)
		s.symHits.Add(1)
	}
	b, ok := v.(*Bundle)
	if !ok {
		return nil, fmt.Errorf("artifacts: key %.12s… holds %T, not a bundle", key, v)
	}
	return b, nil
}

// NewBundle builds a session-private bundle over doc and truth: a fresh
// index, the compiled truth plan, the default-config data graph, the
// seeded symbol table and an empty extent memo, with Hash left empty.
// It is what a session prepared without a store shares between its
// teacher, its engine and its verification, so the document is indexed
// once per session rather than once per consumer.
func NewBundle(doc *xmldoc.Document, truth *xq.Tree) *Bundle {
	return newBundle(xq.NewIndex(doc), truth)
}

// newBundle builds every artifact of a bundle over an existing index.
func newBundle(ix *xq.Index, truth *xq.Tree) *Bundle {
	d := ix.Doc()
	return &Bundle{
		Doc:     d,
		Index:   ix,
		Truth:   truth,
		Extents: xq.NewSharedExtents(),
		Plan:    xq.NewTreePlan(ix, truth),
		Graph:   datagraph.New(d, datagraph.DefaultConfig()),
		Syms:    angluin.NewSymbolTable(d.Alphabet()...),
	}
}

// indexOnce is the once-per-document index slot behind IndexFor.
type indexOnce struct {
	once sync.Once
	ix   *xq.Index
}

// IndexFor returns the store's canonical evaluator index for doc,
// building it at most once per document instance. Keying by identity is
// sound because documents are immutable after parsing and the benchmark
// suites share one instance across their scenarios; distinct parses of
// equal bytes get distinct indexes, which costs speed, never
// correctness.
func (s *Store) IndexFor(doc *xmldoc.Document) *xq.Index {
	v, _ := s.indexes.LoadOrStore(doc, &indexOnce{})
	slot, ok := v.(*indexOnce)
	if !ok {
		// Unreachable: the map only ever stores *indexOnce values.
		return xq.NewIndex(doc)
	}
	built := false
	slot.once.Do(func() {
		slot.ix = xq.NewIndex(doc)
		built = true
	})
	if built {
		s.indexMisses.Add(1)
	} else {
		s.indexHits.Add(1)
	}
	return slot.ix
}

// approxBundleBytes estimates a bundle's resident size for the byte
// budget: the dominant terms are the document's nodes and the index's
// per-node clocks and label files. The constant is an engineering
// estimate, not an exact account — the budget is a pressure valve.
func approxBundleBytes(d *xmldoc.Document) int64 {
	const bytesPerNode = 400
	return int64(d.NumNodes()) * bytesPerNode
}

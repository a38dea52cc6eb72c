package core_test

import (
	"context"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/teacher"
	"repro/internal/ucr"
	"repro/internal/xmark"
	"repro/internal/xmldoc"
	"repro/internal/xmp"
	"repro/internal/xq"
)

// walkRootPaths is the oracle for the engine's root-path table: a plain
// document walk grouping every element and attribute by its Node.Path,
// keyed by the "\x00"-joined labels, keys sorted, nodes in document
// order.
func walkRootPaths(doc *xmldoc.Document) ([]string, map[string][]string, map[string][]*xmldoc.Node) {
	var keys []string
	labels := map[string][]string{}
	nodes := map[string][]*xmldoc.Node{}
	doc.Walk(func(n *xmldoc.Node) bool {
		if n.Kind == xmldoc.ElementNode || n.Kind == xmldoc.AttributeNode {
			w := n.Path()
			k := strings.Join(w, "\x00")
			if _, ok := nodes[k]; !ok {
				keys = append(keys, k)
				labels[k] = w
			}
			nodes[k] = append(nodes[k], n)
		}
		return true
	})
	sort.Strings(keys)
	return keys, labels, nodes
}

// rootPathDocs are the documents the root-path differential covers:
// XMark at 1x and 8x, every XMP and Use Case R document, and a small
// hand-written one with attributes, mixed text and repeated siblings.
func rootPathDocs(t *testing.T) map[string]*xmldoc.Document {
	t.Helper()
	big := xmark.DefaultConfig()
	big.Categories *= 8
	big.ItemsPerRegion *= 8
	big.People *= 8
	big.OpenAuctions *= 8
	big.ClosedAuctions *= 8
	docs := map[string]*xmldoc.Document{
		"xmark-1x": xmark.Generate(xmark.DefaultConfig()),
		"xmark-8x": xmark.Generate(big),
		"hand": xmldoc.MustParse(`<r a="1"><x b="2">t<y/>u<y c="3">w</y></x>` +
			`<x>v<z><y/><y a="5"/></z></x>text<x a="4"/><z><x/></z></r>`),
	}
	// Scenarios may parse their document per call; keep one instance
	// per distinct text.
	seen := map[string]bool{}
	for _, s := range append(xmp.Scenarios(), ucr.Scenarios()...) {
		d := s.Doc()
		text := xmldoc.XMLString(d.DocNode())
		if !seen[text] {
			seen[text] = true
			docs[s.ID] = d
		}
	}
	return docs
}

// TestRootPathTableMatchesWalk pins the engine's index-built root-path
// table to the document-walk oracle: the same keys in the same order,
// the same label sequences, and the same nodes in the same order.
func TestRootPathTableMatchesWalk(t *testing.T) {
	for name, doc := range rootPathDocs(t) {
		t.Run(name, func(t *testing.T) {
			keys, labels, nodes := core.RootPathTable(core.New(doc, nil).Engine())
			wantKeys, wantLabels, wantNodes := walkRootPaths(doc)
			if len(keys) != len(wantKeys) {
				t.Fatalf("%d root paths, want %d", len(keys), len(wantKeys))
			}
			for i, k := range wantKeys {
				if keys[i] != k {
					t.Fatalf("key %d = %q, want %q", i, keys[i], k)
				}
				if !slices.Equal(labels[k], wantLabels[k]) {
					t.Fatalf("labels of %q = %q, want %q", k, labels[k], wantLabels[k])
				}
				if !slices.Equal(nodes[k], wantNodes[k]) {
					t.Fatalf("%q: nodes differ from the walk's (%d vs %d)", k, len(nodes[k]), len(wantNodes[k]))
				}
			}
			if len(labels) != len(wantLabels) || len(nodes) != len(wantNodes) {
				t.Fatalf("table sizes labels=%d nodes=%d, want %d/%d", len(labels), len(nodes), len(wantLabels), len(wantNodes))
			}
		})
	}
}

// TestRootPathGroupsMatchPathIndex pins the learner's root-path lookup
// by word ID to the string-keyed table it replaced (the walk oracle,
// keyed by "\x00"-joined labels), on every registered scenario
// document: every realized path, every one-symbol extension of one by
// an alphabet label or an unknown label, and ε, interned into one
// engine Words in shuffled order so the per-ID memo is filled child
// before parent as often as parent before child.
func TestRootPathGroupsMatchPathIndex(t *testing.T) {
	docs := map[string]*xmldoc.Document{}
	seen := map[string]bool{}
	for _, s := range append(append(xmark.Scenarios(), xmp.Scenarios()...), ucr.Scenarios()...) {
		d := s.Doc()
		if text := xmldoc.XMLString(d.DocNode()); !seen[text] {
			seen[text] = true
			docs[s.ID] = d
		}
	}
	rng := rand.New(rand.NewSource(11))
	for name, doc := range docs {
		t.Run(name, func(t *testing.T) {
			_, labels, pathIndex := walkRootPaths(doc)
			alphabet := doc.Alphabet()
			words := [][]string{nil}
			for _, w := range labels {
				words = append(words, w)
				for _, a := range append(alphabet, "no-such-label") {
					words = append(words, append(slices.Clip(w), a))
				}
			}
			rng.Shuffle(len(words), func(i, j int) { words[i], words[j] = words[j], words[i] })

			eng := core.New(doc, nil).Engine()
			trie := core.EngineWords(eng)
			defer trie.Release()
			lookup := core.RootPathLookup(eng, trie)
			ids := make([]int32, len(words))
			for i, w := range words {
				ids[i] = trie.Intern(w)
			}
			realized := map[int32]bool{}
			for i, w := range words {
				want := pathIndex[strings.Join(w, "\x00")]
				got := lookup(ids[i])
				if !slices.Equal(got, want) {
					t.Fatalf("word %q: %d nodes by ID, %d in the string-keyed table", w, len(got), len(want))
				}
				if len(want) > 0 {
					realized[ids[i]] = true
				}
			}
			if len(realized) != len(pathIndex) {
				t.Fatalf("%d realized words found, table has %d paths", len(realized), len(pathIndex))
			}
		})
	}
}

// TestEngineEvaluatesOverOneIndex checks that an engine handed a shared
// index still evaluates over it after Learn — it never builds one of
// its own — and that an engine without one keeps the single index it
// built at construction.
func TestEngineEvaluatesOverOneIndex(t *testing.T) {
	doc := xmldoc.MustParse(sourceXML)
	ix := xq.NewIndex(doc)
	shared := core.New(doc, runningExampleTeacher(doc, teacher.BestCase), core.WithSharedIndex(ix)).Engine()
	if _, _, err := shared.Learn(context.Background(), runningExampleSpec()); err != nil {
		t.Fatal(err)
	}
	if core.EvalIndex(shared) != ix {
		t.Fatal("engine with a shared index evaluated over an index of its own")
	}

	// An index over another instance of the same text is ignored.
	own := core.New(doc, runningExampleTeacher(doc, teacher.BestCase), core.WithSharedIndex(xq.NewIndex(xmldoc.MustParse(sourceXML)))).Engine()
	built := core.EvalIndex(own)
	if built.Doc() != doc {
		t.Fatal("engine index is over a foreign document")
	}
	if _, _, err := own.Learn(context.Background(), runningExampleSpec()); err != nil {
		t.Fatal(err)
	}
	if core.EvalIndex(own) != built {
		t.Fatal("engine replaced its index during Learn")
	}
}

package angluin

import (
	"slices"
	"sync"
)

// Words is a caller-owned word trie: the integer identity of every word
// a learner asks about. Its node IDs are stable across every Learn and
// LearnKV call that shares it (WithWords), so a teacher that keeps
// per-word state — an answer cache, a memoized lookup — can index it by
// the ID the learner passes through the IDTeacher seam instead of
// re-joining the word into a string key. The owner may Intern words
// itself, before, between or during learner runs (from inside a teacher
// callback): while a learner runs it works on the same trie, so an ID
// the owner interns is the ID the learner would assign, and vice versa.
//
// A Words is not safe for concurrent use. Its arrays come from a pool;
// Release hands them back once the owner is done with every ID.
type Words struct {
	tr       *trie
	alphabet []string
}

var triePool = sync.Pool{New: func() any { return new(trie) }}

// NewWords builds an empty trie (only ε, ID 0) over the given symbol
// table and learner alphabet. A nil table gets a private one. Learn and
// LearnKV reject a Words built over a different alphabet than theirs.
func NewWords(tab *SymbolTable, alphabet []string) *Words {
	if tab == nil {
		tab = NewSymbolTable()
	}
	tr, _ := triePool.Get().(*trie)
	tr.init(tab, alphabet)
	return &Words{tr: tr, alphabet: slices.Clone(alphabet)}
}

// Intern returns the ID of word, registering it (and its prefixes) on
// first sight. Symbols outside the alphabet are resolved through the
// symbol table.
func (w *Words) Intern(word []string) int32 {
	id := int32(0)
	for _, s := range word {
		sym := w.tr.resolve(s)
		c := w.tr.child(id, sym)
		if c < 0 {
			c = w.tr.add(id, sym)
		}
		id = c
	}
	return id
}

// Parent returns the ID of the word minus its last symbol (-1 for ε).
func (w *Words) Parent(id int32) int32 { return w.tr.parent[id] }

// Sym returns the symbol-table ID of the word's last symbol (-1 for ε).
func (w *Words) Sym(id int32) int32 { return w.tr.sym[id] }

// AppendWord appends word id's symbols to dst and returns the extended
// slice: the one way a word crosses back from its ID to strings.
func (w *Words) AppendWord(dst []string, id int32) []string { return w.tr.appendWord(dst, id) }

// Release returns the trie's arrays to the pool. The Words and every ID
// it handed out are invalid afterwards. The pooled trie keeps neither
// symbol strings nor the table: resolve only ever writes symStr below
// its length, so clearing that prefix leaves the whole capacity clear.
func (w *Words) Release() {
	clear(w.tr.symStr)
	w.tr.tab = nil
	triePool.Put(w.tr)
	w.tr = nil
}

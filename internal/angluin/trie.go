package angluin

// The integer prefix trie behind the observation table. Every word the
// learner touches — access strings, their one-symbol extensions, the
// prefix·suffix concatenations of table cells — is a trie node reached
// by walking symbol IDs from the ε root, so the structures that used to
// be keyed by joined strings (the prefix intern, the membership table)
// become arrays indexed by node ID and the hot extID/row path builds no
// strings at all. A node is identified by its (parent, symbol) edge,
// and its ID is the word's identity on both sides of the teacher seam
// (see Words and IDTeacher): only the word's symbols are materialized,
// from the parent chain, when it has to cross that seam.
//
// Child lookup is tiered by how branchy a node actually is:
//
//   - Every node carries one inline child slot. Most nodes are links in
//     a linear word chain (a cell's prefix·suffix walk) with exactly
//     one child, so the common case allocates nothing per node.
//   - A node acquiring a second in-alphabet child — the access strings
//     the closedness scan extends by every symbol — promotes to a dense
//     child row indexed by alphabet position, when the alphabet is
//     small enough (denseAlphabetMax) for rows to beat hashing.
//   - Everything else — huge alphabets, symbols outside the fixed
//     alphabet (counterexample words can contain them) — lives in one
//     map keyed by the packed (parent<<32 | symbol) int64.

// denseAlphabetMax is the largest alphabet for which branchy nodes
// promote to dense per-parent child rows; larger alphabets stay on the
// packed map.
const denseAlphabetMax = 256

type trie struct {
	tab *SymbolTable
	// symStr mirrors tab's ID→symbol mapping for the symbols this trie
	// has resolved, so word materialization never takes the table's
	// lock. Entries for IDs other learners interned stay "" until (and
	// unless) this learner resolves the same symbol.
	symStr []string
	// alpha[ai] is the symbol ID of alphabet[ai]; aiOf inverts it
	// (symbol ID → alphabet position, -1 for out-of-alphabet symbols).
	alpha []int32
	aiOf  []int32
	dense bool

	// Per-node state, index = node ID; node 0 is the ε root.
	parent []int32
	sym    []int32 // symbol ID of the node's last step; -1 at the root
	depth  []int32 // word length
	// kidSym/kid are the inline first-child slot (kidSym -1 = no
	// children). rowIdx is -1 until a second in-alphabet child promotes
	// the node, then the index of its dense child row: row r lives at
	// rowData[r*len(alpha) : (r+1)*len(alpha)]. Flat storage keeps the
	// per-node cost at 4 bytes (a slice-of-slices would spend 24 on a
	// nil header per node, and nearly all nodes are unpromoted links in
	// linear word chains).
	kidSym  []int32
	kid     []int32
	rowIdx  []int32
	rowData []int32
	kids    map[uint64]int32
}

func pack(p, sym int32) uint64 { return uint64(uint32(p))<<32 | uint64(uint32(sym)) }

// init (re)builds the trie for a learning session: a pooled trie keeps
// its arrays' capacities and reuses them, so only the first session in
// a process pays for growth.
func (t *trie) init(tab *SymbolTable, alphabet []string) {
	t.tab = tab
	t.symStr = t.symStr[:0]
	t.aiOf = t.aiOf[:0]
	t.alpha = t.alpha[:0]
	t.dense = len(alphabet) <= denseAlphabetMax
	for ai, a := range alphabet {
		id := t.resolve(a)
		t.alpha = append(t.alpha, id)
		t.aiOf[id] = int32(ai)
	}
	t.parent = append(t.parent[:0], -1)
	t.sym = append(t.sym[:0], -1)
	t.depth = append(t.depth[:0], 0)
	t.kidSym = append(t.kidSym[:0], -1)
	t.kid = append(t.kid[:0], -1)
	t.rowIdx = append(t.rowIdx[:0], -1)
	t.rowData = t.rowData[:0]
	clear(t.kids)
}

// len reports the node count; node IDs are dense in [0, len).
func (t *trie) len() int { return len(t.parent) }

// resolve interns a symbol through the shared table and records its
// string locally for lock-free word building.
func (t *trie) resolve(s string) int32 {
	id := t.tab.ID(s)
	for int(id) >= len(t.symStr) {
		t.symStr = append(t.symStr, "")
		t.aiOf = append(t.aiOf, -1)
	}
	t.symStr[id] = s
	return id
}

// row returns node p's promoted dense child row, or nil.
func (t *trie) row(p int32) []int32 {
	ri := t.rowIdx[p]
	if ri < 0 {
		return nil
	}
	off := int(ri) * len(t.alpha)
	return t.rowData[off : off+len(t.alpha)]
}

// child returns the child of p along symbol sym, or -1. sym must have
// come through resolve.
func (t *trie) child(p, sym int32) int32 {
	if t.kidSym[p] == sym {
		return t.kid[p]
	}
	if r := t.row(p); r != nil {
		if ai := t.aiOf[sym]; ai >= 0 {
			return r[ai]
		}
	}
	if c, ok := t.kids[pack(p, sym)]; ok {
		return c
	}
	return -1
}

// add registers a new child of p along sym — the caller has checked it
// is absent — and returns its ID.
func (t *trie) add(p, sym int32) int32 {
	id := int32(len(t.parent))
	t.parent = append(t.parent, p)
	t.sym = append(t.sym, sym)
	t.depth = append(t.depth, t.depth[p]+1)
	t.kidSym = append(t.kidSym, -1)
	t.kid = append(t.kid, -1)
	t.rowIdx = append(t.rowIdx, -1)

	if t.kidSym[p] < 0 {
		t.kidSym[p] = sym
		t.kid[p] = id
		return id
	}
	if t.dense {
		ai := t.aiOf[sym]
		r := t.row(p)
		if r == nil && ai >= 0 {
			// Second in-alphabet child: promote to a dense row, seeding
			// it with the inline child (which stays findable through its
			// slot either way).
			t.rowIdx[p] = int32(len(t.rowData) / len(t.alpha))
			for range t.alpha {
				t.rowData = append(t.rowData, -1)
			}
			r = t.rowData[len(t.rowData)-len(t.alpha):]
			if fai := t.aiOf[t.kidSym[p]]; fai >= 0 {
				r[fai] = t.kid[p]
			}
		}
		if r != nil && ai >= 0 {
			r[ai] = id
			return id
		}
	}
	if t.kids == nil {
		t.kids = make(map[uint64]int32, 1<<8)
	}
	t.kids[pack(p, sym)] = id
	return id
}

// appendWord appends node id's word to dst, back to front.
func (t *trie) appendWord(dst []string, id int32) []string {
	n := int(t.depth[id])
	base := len(dst)
	if cap(dst) < base+n {
		c := 2 * cap(dst)
		if c < base+n {
			c = base + n
		}
		grown := make([]string, base, c)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:base+n]
	for cur, i := id, base+n-1; cur > 0; cur, i = t.parent[cur], i-1 {
		dst[i] = t.symStr[t.sym[cur]]
	}
	return dst
}

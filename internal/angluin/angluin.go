// Package angluin implements Angluin's L* algorithm for learning a
// minimal DFA from membership and equivalence queries (Angluin 1987),
// the machine-learning core of XLearner's P-Learner. The teacher
// abstraction is deliberately minimal so callers can interpose caching,
// interaction counting, and the paper's auto-answer rules R1/R2.
package angluin

import (
	"bytes"
	"fmt"
	"strings"

	"repro/internal/pathre"
)

// Teacher answers the two kinds of learner's queries of a minimally
// adequate teacher. Either method may return an error — a canceled
// session, a teacher who walked away, an inconsistency that demands a
// restart — which aborts the learner immediately and propagates out of
// Learn/LearnKV unwrapped, so callers can match it with errors.Is/As.
type Teacher interface {
	// Member reports whether word is in the target language. The word
	// slice is only valid for the duration of the call — the learner
	// reuses its backing array — so implementations that keep it must
	// copy.
	Member(word []string) (bool, error)
	// Equivalent checks the hypothesis. If the hypothesis is correct it
	// returns (nil, true, nil); otherwise it returns a counterexample
	// word from the symmetric difference and false.
	Equivalent(hypothesis *pathre.DFA) (counterexample []string, ok bool, err error)
}

// KeyedTeacher is an optional Teacher extension. MemberKeyed is Member
// with the word's canonical cache key — strings.Join(word, "\x00") —
// already materialized: the learner tracks every word it asks about as
// an integer trie node, so a teacher that maintains its own word-keyed
// answer cache can probe and insert with the one key string the learner
// materializes at the teacher boundary instead of re-joining the word
// (that join is a per-query allocation that tops whole-benchmark
// profiles). The word-validity contract is Member's; the key may be
// retained.
type KeyedTeacher interface {
	Teacher
	MemberKeyed(word []string, key string) (bool, error)
}

// Stats counts the queries the learner issued. Membership queries are
// counted per distinct word asked — one charge per word whether it went
// out alone or inside a batch (the learner itself never repeats a word;
// repeats are served from the observation table) — so the counts are
// identical across the serial and batched protocols.
type Stats struct {
	MembershipQueries  int
	EquivalenceQueries int
	Counterexamples    int
	HypothesisStates   int
	// BatchRounds / BatchedQueries count the query-set waves shipped to
	// a batch teacher and the membership queries in them (zero for
	// single-query teachers and for LearnKV, whose adaptive sift probes
	// are asked one at a time).
	BatchRounds    int
	BatchedQueries int
}

// Option configures Learn.
type Option func(*learner)

// WithInitialExample seeds the observation table with the prefixes of a
// known positive example (the paper's path(e) of the dropped node).
func WithInitialExample(word []string) Option {
	return func(l *learner) { l.initial = append([]string(nil), word...) }
}

// WithMaxEquivalenceQueries bounds the number of equivalence queries;
// Learn fails with an error if exceeded (protects against inconsistent
// teachers). Default 1000.
func WithMaxEquivalenceQueries(n int) Option {
	return func(l *learner) { l.maxEQ = n }
}

// WithSymbolTable hands the learner a shared symbol intern table (see
// SymbolTable). Sessions learning over the same document should pass
// the bundle's table so the alphabet is interned once per document, not
// once per fragment; a nil table is ignored and the learner builds a
// private one.
func WithSymbolTable(t *SymbolTable) Option {
	return func(l *learner) {
		if t != nil {
			l.tab = t
		}
	}
}

// Learn runs L* over the given alphabet against the teacher and returns
// the learned minimal DFA.
func Learn(alphabet []string, t Teacher, opts ...Option) (*pathre.DFA, Stats, error) {
	l := &learner{
		alphabet: append([]string(nil), alphabet...),
		teacher:  t,
		maxEQ:    1000,
	}
	l.keyed, _ = t.(KeyedTeacher)
	l.batch, _ = t.(BatchTeacher)
	l.kbatch, _ = t.(KeyedBatchTeacher)
	for _, o := range opts {
		o(l)
	}
	if l.tab == nil {
		l.tab = NewSymbolTable()
	}
	sc, _ := scratchPool.Get().(*scratch)
	l.adopt(sc)
	defer func() {
		l.release(sc)
		scratchPool.Put(sc)
	}()
	l.tr.init(l.tab, l.alphabet)
	l.grow()
	return l.run()
}

// Membership-table cell states: the table is a dense array indexed by
// trie node ID, so a probe is one load instead of a string-keyed map
// lookup.
const (
	ansUnknown uint8 = iota
	ansNo
	ansYes
)

type learner struct {
	alphabet []string
	teacher  Teacher
	// keyed is teacher's KeyedTeacher form when it implements one (nil
	// otherwise); membership misses prefer it, passing the cache key
	// materialized at the ask.
	keyed KeyedTeacher
	// batch/kbatch are the teacher's batch forms when implemented: the
	// closedness scan then prefills whole query sets per round trip
	// (see batch.go) instead of asking cell by cell.
	batch   BatchTeacher
	kbatch  KeyedBatchTeacher
	initial []string
	maxEQ   int

	// Word interning. Every access string, one-symbol extension, and
	// asked word is a node of an integer parent-chain trie (see
	// trie.go); all per-word state below is indexed by node ID, so the
	// scans that dominate L* — closedness, consistency, hypothesis
	// extraction — and the membership-table probes run on integer
	// lookups with zero string building. tab is the (possibly shared)
	// symbol intern table behind the trie.
	tab *SymbolTable
	tr  trie
	// rowOf maps a node to its observation-table entry in rowEnts, -1
	// until the node is first used as a table prefix. The indirection
	// keeps the per-node cost at 4 bytes: only the prefixes of S and
	// their one-symbol extensions ever get an entry, while the vast
	// majority of nodes — intermediate links of the prefix·suffix word
	// walks — never do.
	rowOf   []int32
	rowEnts []rowEntry
	epoch   uint32
	// ans is the membership table: the answer for the word at each trie
	// node. Distinct (prefix, suffix) pairs concatenating to the same
	// word walk to the same node, so they share a single teacher
	// question exactly as the string-keyed table did.
	ans []uint8
	// waveMark stamps nodes already collected into the current batch
	// wave (see prefill), replacing the per-wave seen map.
	waveMark  []uint32
	waveEpoch uint32

	// s is the access-string set S in insertion order.
	s []int32
	// e is the distinguishing suffix set E, with eSyms the suffixes
	// resolved to symbol IDs for the trie walk.
	e     [][]string
	eSyms [][]int32
	// Incremental closedness state, valid for the current E. rowsOfS
	// holds the rows S realizes (it only grows while E is fixed:
	// prefixes are never removed); tabled counts the prefixes of s
	// already folded into it. Both reset, and the epoch advances, when
	// a suffix is added.
	rowsOfS map[string]bool
	tabled  int
	// prefilled is the S index up to which the current epoch's
	// closedness query set was batch-prefetched (see prefill); reset
	// with the epoch.
	prefilled int
	// kb is a scratch buffer for the key strings materialized at the
	// teacher boundary; wb is the matching scratch for the concatenated
	// words handed to the teacher (the Teacher contract forbids
	// retaining them).
	kb []byte
	wb []string
	// Batch-wave scratch, reused across waves (see prefill): wvSyms
	// flat-stores the wave's words back to back and wvOff/wvKOff record
	// each word's start in wvSyms and in the key blob built in kb, so
	// the per-word slice headers (wvWords/wvKeys) are materialized only
	// after the flat buffers stop growing. Word slices carved from
	// wvSyms are only valid for the batch call — exactly the Teacher
	// word contract — while keys are substrings of one immutable blob
	// string per wave, safe for the teacher to retain.
	wvSyms  []string
	wvOff   []int32
	wvKOff  []int32
	wvWords [][]string
	wvKeys  []string
	wvWids  []int32

	stats Stats
}

// rowEntry is one prefix's row, built column by column: bits holds the
// membership answers ('0'/'1') for the first len(bits) suffixes. Rows
// are handed out as byte slices aliasing bits — map probes use the
// non-allocating map[string(bits)] form and a row string is only
// materialized when a genuinely new row is inserted — so a caller must
// not hold a row across a row call for the same prefix. The per-prefix
// closedness state rides along: inS marks membership in S, checked the
// suffix epoch in which the row was confirmed realized in S.
type rowEntry struct {
	bits    []byte
	checked uint32
	inS     bool
}

func key(w []string) string { return strings.Join(w, "\x00") }

// grow extends the per-node side arrays to the trie's node count.
func (l *learner) grow() {
	for len(l.rowOf) < l.tr.len() {
		l.rowOf = append(l.rowOf, -1)
		l.ans = append(l.ans, ansUnknown)
		l.waveMark = append(l.waveMark, 0)
	}
}

// rowEnt returns node id's table entry, allocating it on first use as a
// prefix. The pointer is valid until the next rowEnt call for a node
// without one — callers must not hold it across prefix additions.
func (l *learner) rowEnt(id int32) *rowEntry {
	ri := l.rowOf[id]
	if ri < 0 {
		ri = int32(len(l.rowEnts))
		l.rowOf[id] = ri
		if n := len(l.rowEnts); n < cap(l.rowEnts) {
			// Reuse a pooled slot in place so its bits buffer keeps its
			// capacity across sessions.
			l.rowEnts = l.rowEnts[:n+1]
			e := &l.rowEnts[n]
			e.bits = e.bits[:0]
			e.checked = 0
			e.inS = false
		} else {
			l.rowEnts = append(l.rowEnts, rowEntry{})
		}
	}
	return &l.rowEnts[ri]
}

// isInS reports whether node id is in S, without allocating an entry.
func (l *learner) isInS(id int32) bool {
	ri := l.rowOf[id]
	return ri >= 0 && l.rowEnts[ri].inS
}

// checkedAt returns node id's closedness-check epoch stamp (0 = never),
// without allocating an entry.
func (l *learner) checkedAt(id int32) uint32 {
	ri := l.rowOf[id]
	if ri < 0 {
		return 0
	}
	return l.rowEnts[ri].checked
}

// node returns the trie node for prefix p extended by symbol sym,
// registering it on first sight.
func (l *learner) node(p, sym int32) int32 {
	if c := l.tr.child(p, sym); c >= 0 {
		return c
	}
	id := l.tr.add(p, sym)
	l.grow()
	return id
}

// walk returns the node of prefix id extended by the given symbols.
func (l *learner) walk(id int32, syms []int32) int32 {
	for _, s := range syms {
		id = l.node(id, s)
	}
	return id
}

// internWord interns a word, resolving its symbols as needed
// (counterexamples can contain symbols outside the alphabet).
func (l *learner) internWord(w []string) int32 {
	id := int32(0)
	for _, s := range w {
		id = l.node(id, l.tr.resolve(s))
	}
	return id
}

// extID returns the ID of prefix id extended by alphabet[ai],
// interning the extension on first sight. In dense mode this is the
// two-load fast path the closedness and hypothesis scans hit.
func (l *learner) extID(id int32, ai int) int32 {
	if ri := l.tr.rowIdx[id]; ri >= 0 {
		if c := l.tr.rowData[int(ri)*len(l.tr.alpha)+ai]; c >= 0 {
			return c
		}
	}
	return l.node(id, l.tr.alpha[ai])
}

func (l *learner) setAns(id int32, v bool) {
	if v {
		l.ans[id] = ansYes
	} else {
		l.ans[id] = ansNo
	}
}

func (l *learner) member(w []string) (bool, error) {
	id := l.internWord(w)
	if v := l.ans[id]; v != ansUnknown {
		return v == ansYes, nil
	}
	var v bool
	var err error
	if l.keyed != nil {
		l.kb = l.tr.appendKey(l.kb[:0], id)
		v, err = l.keyed.MemberKeyed(w, string(l.kb))
	} else {
		v, err = l.teacher.Member(w)
	}
	if err != nil {
		return false, err
	}
	l.stats.MembershipQueries++
	l.setAns(id, v)
	return v, nil
}

// row computes the observation-table row of the prefix with the given
// ID. A row is a function of the prefix and the suffix set E only, and
// E only grows, so the cached row stays correct column-for-column
// forever: a call after a suffix was added probes just the new columns.
// A cell's membership lookup walks the suffix symbols from the prefix
// node — integer steps, no key building — and the concatenated word and
// its key are materialized only when the teacher actually has to be
// asked. The returned slice aliases the entry's growing buffer — valid
// until the next row call for the same prefix, which callers never
// interleave.
func (l *learner) row(id int32) ([]byte, error) {
	ent := l.rowEnt(id)
	if len(ent.bits) == len(l.e) {
		return ent.bits, nil
	}
	for i := len(ent.bits); i < len(l.e); i++ {
		wid := l.walk(id, l.eSyms[i])
		v := l.ans[wid]
		if v == ansUnknown {
			w := l.tr.appendWord(l.wb[:0], wid)
			l.wb = w
			var b bool
			var err error
			if l.keyed != nil {
				// Materialize the cache key at the boundary so the keyed
				// teacher's own cache skips re-joining the word.
				l.kb = l.tr.appendKey(l.kb[:0], wid)
				b, err = l.keyed.MemberKeyed(w, string(l.kb))
			} else {
				b, err = l.teacher.Member(w)
			}
			if err != nil {
				return nil, err
			}
			l.stats.MembershipQueries++
			l.setAns(wid, b)
			v = l.ans[wid]
		}
		if v == ansYes {
			ent.bits = append(ent.bits, '1')
		} else {
			ent.bits = append(ent.bits, '0')
		}
	}
	return ent.bits, nil
}

func (l *learner) addPrefix(id int32) {
	if ent := l.rowEnt(id); !ent.inS {
		ent.inS = true
		l.s = append(l.s, id)
	}
}

func (l *learner) hasSuffix(syms []int32) bool {
	for _, es := range l.eSyms {
		if len(es) != len(syms) {
			continue
		}
		eq := true
		for i := range es {
			if es[i] != syms[i] {
				eq = false
				break
			}
		}
		if eq {
			return true
		}
	}
	return false
}

func (l *learner) run() (*pathre.DFA, Stats, error) {
	l.s = append(l.s[:0], 0)
	l.rowEnt(0).inS = true
	l.e = [][]string{{}}
	l.eSyms = [][]int32{{}}
	if l.initial != nil {
		for i := 1; i <= len(l.initial); i++ {
			l.addPrefix(l.internWord(l.initial[:i]))
		}
	}
	for eq := 0; eq < l.maxEQ; eq++ {
		if err := l.close(); err != nil {
			return nil, l.stats, err
		}
		h, err := l.hypothesis()
		if err != nil {
			return nil, l.stats, err
		}
		l.stats.EquivalenceQueries++
		l.stats.HypothesisStates = h.NumStates()
		ce, ok, err := l.teacher.Equivalent(h)
		if err != nil {
			return nil, l.stats, err
		}
		if ok {
			return h, l.stats, nil
		}
		l.stats.Counterexamples++
		if ce == nil {
			return nil, l.stats, fmt.Errorf("angluin: teacher rejected hypothesis without a counterexample")
		}
		inTarget, err := l.member(ce)
		if err != nil {
			return nil, l.stats, err
		}
		if h.Accepts(ce) == inTarget {
			return nil, l.stats, fmt.Errorf("angluin: counterexample %v does not distinguish hypothesis from target", ce)
		}
		for i := 1; i <= len(ce); i++ {
			l.addPrefix(l.internWord(ce[:i]))
		}
	}
	return nil, l.stats, fmt.Errorf("angluin: exceeded %d equivalence queries", l.maxEQ)
}

// close extends S until the table is closed and consistent. The
// closedness scan is incremental: under a fixed suffix set rows never
// change and S only grows, so extension checks that passed once are
// never repeated — neither within one call nor across the successive
// close calls of the counterexample loop.
//
// With a batch teacher the scan is batch-first: before touching a
// frontier level it prefills every cell the level's checks will need as
// one query set (prefill), so the row calls below are pure table reads;
// without one, prefill is a no-op and the row calls ask cell by cell
// exactly as before. Either way the cells are answered in the same
// order with the same charges.
func (l *learner) close() error {
	for {
		if l.rowsOfS == nil {
			l.rowsOfS = map[string]bool{}
			l.tabled = 0
			l.prefilled = 0
			l.epoch++
		}
		if err := l.prefill(); err != nil {
			return err
		}
		for l.tabled < len(l.s) {
			r, err := l.row(l.s[l.tabled])
			if err != nil {
				return err
			}
			// Probe before inserting: the map[string(r)] probe form never
			// allocates, and a row string is materialized only for the few
			// genuinely distinct rows.
			if !l.rowsOfS[string(r)] {
				l.rowsOfS[string(r)] = true
			}
			l.tabled++
		}
		// Closedness: every one-step extension's row must appear in S.
		// Prefixes appended mid-scan are reached by the same loop, so one
		// pass suffices; their query sets are prefilled level by level as
		// the scan reaches them.
		for i := 0; i < len(l.s); i++ {
			if i >= l.prefilled {
				if err := l.prefill(); err != nil {
					return err
				}
			}
			sid := l.s[i]
			for ai := range l.alphabet {
				eid := l.extID(sid, ai)
				if l.isInS(eid) || l.checkedAt(eid) == l.epoch {
					continue
				}
				r, err := l.row(eid)
				if err != nil {
					return err
				}
				if l.rowsOfS[string(r)] {
					l.rowEnt(eid).checked = l.epoch
					continue
				}
				l.addPrefix(eid)
				l.rowsOfS[string(r)] = true
			}
		}
		l.tabled = len(l.s)
		// Consistency: equal rows must have equal extensions; otherwise
		// a new distinguishing suffix exists.
		fixed, err := l.fixInconsistency()
		if err != nil {
			return err
		}
		if !fixed {
			return nil
		}
		// A suffix was added: every row-derived structure is stale
		// (cached rows stay valid column-for-column and extend lazily).
		l.rowsOfS = nil
	}
}

func (l *learner) fixInconsistency() (bool, error) {
	for i := 0; i < len(l.s); i++ {
		for j := i + 1; j < len(l.s); j++ {
			ri0, err := l.row(l.s[i])
			if err != nil {
				return false, err
			}
			rj0, err := l.row(l.s[j])
			if err != nil {
				return false, err
			}
			if !bytes.Equal(ri0, rj0) {
				continue
			}
			for ai, a := range l.alphabet {
				ri, err := l.row(l.extID(l.s[i], ai))
				if err != nil {
					return false, err
				}
				rj, err := l.row(l.extID(l.s[j], ai))
				if err != nil {
					return false, err
				}
				if bytes.Equal(ri, rj) {
					continue
				}
				// Find the suffix position where they differ; add a.e.
				for p := 0; p < len(ri); p++ {
					if ri[p] != rj[p] {
						newSyms := append([]int32{l.tr.alpha[ai]}, l.eSyms[p]...)
						if !l.hasSuffix(newSyms) {
							l.e = append(l.e, append([]string{a}, l.e[p]...))
							l.eSyms = append(l.eSyms, newSyms)
							return true, nil
						}
					}
				}
			}
		}
	}
	return false, nil
}

// hypothesis builds the conjectured DFA from the closed, consistent
// observation table.
func (l *learner) hypothesis() (*pathre.DFA, error) {
	// Unique rows of S become states.
	stateOf := map[string]int{}
	var reps []int32
	for _, sid := range l.s {
		r, err := l.row(sid)
		if err != nil {
			return nil, err
		}
		if _, ok := stateOf[string(r)]; !ok {
			stateOf[string(r)] = len(reps)
			reps = append(reps, sid)
		}
	}
	d := pathre.NewDFA(l.alphabet, len(reps))
	// NewDFA sorts the alphabet; transitions must be indexed by the
	// sorted order.
	for qi, rep := range reps {
		r, err := l.row(rep)
		if err != nil {
			return nil, err
		}
		d.Accept[qi] = r[0] == '1' // E[0] is ε
		for ai, a := range l.alphabet {
			re, err := l.row(l.extID(rep, ai))
			if err != nil {
				return nil, err
			}
			target, ok := stateOf[string(re)]
			if !ok {
				// Table is closed, so this cannot happen; guard anyway.
				target = qi
			}
			d.Trans[qi][d.SymIndex(a)] = target
		}
	}
	r0, err := l.row(0)
	if err != nil {
		return nil, err
	}
	d.Start = stateOf[string(r0)]
	return d, nil
}

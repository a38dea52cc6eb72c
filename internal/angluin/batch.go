package angluin

import (
	"fmt"

	"repro/internal/pathre"
)

// This file is the batch-first half of the teacher protocol: the
// learner no longer asks the teacher cell by cell but emits *query
// sets* — all unfilled cells of a row, all cells a pending closedness
// or consistency check will need — and commits the answers by index.
// Ordering is load-bearing twice over:
//
//   - Emission order equals the serial learner's ask order exactly, so
//     a teacher whose answers depend on dialogue state (the P-Learner's
//     representative selection evolves with positive answers) sees the
//     same question sequence and gives the same answers; batched and
//     serial sessions produce byte-identical observation tables and
//     interaction counts.
//   - Commitment is by query index, never by arrival order: answers[i]
//     belongs to words[i] whatever order a transport delivered them in,
//     so shuffling a batch's answer delivery cannot perturb the table
//     (the xlint determinism suite enforces the pattern).

// BatchTeacher is an optional Teacher extension: MemberBatch answers a
// whole query set in one round trip. The returned slice has exactly one
// answer per word, same index. Word slices follow Member's validity
// contract (only valid for the duration of the call). Teachers whose
// answers depend on dialogue state must process the set in index order;
// the learner emits it in serial ask order for exactly that reason.
type BatchTeacher interface {
	Teacher
	MemberBatch(words [][]string) ([]bool, error)
}

// KeyedBatchTeacher is the keyed form of BatchTeacher (see
// KeyedTeacher): the learner passes the canonical cache key of every
// word alongside, and keys may be retained.
type KeyedBatchTeacher interface {
	KeyedTeacher
	MemberBatchKeyed(words [][]string, keys []string) ([]bool, error)
}

// SerialAdapter adapts any single-query Teacher to the batch seam by
// asking the set in index order, one Member call per word — today's
// single-query teachers (test doubles, replay logs, teacher.Sim used
// serially) keep working unchanged behind it, with an unchanged
// dialogue. It forwards the keyed fast path when the wrapped teacher
// has one.
type SerialAdapter struct{ T Teacher }

func (a SerialAdapter) Member(w []string) (bool, error) { return a.T.Member(w) }

func (a SerialAdapter) Equivalent(h *pathre.DFA) ([]string, bool, error) {
	return a.T.Equivalent(h)
}

// MemberBatch answers the set serially, in index order.
func (a SerialAdapter) MemberBatch(words [][]string) ([]bool, error) {
	out := make([]bool, len(words))
	keyed, _ := a.T.(KeyedTeacher)
	for i, w := range words {
		var v bool
		var err error
		if keyed != nil {
			v, err = keyed.MemberKeyed(w, key(w))
		} else {
			v, err = a.T.Member(w)
		}
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// askWave ships one query set to the batch teacher and commits the
// answers by index: l.ans[wids[i]] = answers[i], one membership-query
// charge per word, exactly as the serial learner would have charged
// asking the same cells one at a time.
func (l *learner) askWave(words [][]string, keys []string, wids []int32) error {
	if len(words) == 0 {
		return nil
	}
	var ans []bool
	var err error
	if l.kbatch != nil {
		ans, err = l.kbatch.MemberBatchKeyed(words, keys)
	} else {
		ans, err = l.batch.MemberBatch(words)
	}
	if err != nil {
		return err
	}
	if len(ans) != len(words) {
		return fmt.Errorf("angluin: batch teacher answered %d of %d queries", len(ans), len(words))
	}
	l.stats.BatchRounds++
	l.stats.BatchedQueries += len(words)
	for i, wid := range wids {
		l.setAns(wid, ans[i])
		l.stats.MembershipQueries++
	}
	return nil
}

// prefill emits the query set a pending closedness check needs — every
// unfilled cell of the rows of s[l.prefilled:] and of their one-symbol
// extensions — as one wave, in exactly the serial ask order: first the
// rows of S (the tabled loop's cells, row by row, column by column),
// then the extension rows in scan order. Cells already answered in the
// table contribute nothing; duplicate words within the wave (distinct
// prefix·suffix splits of one word) are asked once, as serially.
// Without a batch teacher prefill is a no-op and the scan asks cell by
// cell as before.
func (l *learner) prefill() error {
	from := l.prefilled
	l.prefilled = len(l.s)
	if l.batch == nil && l.kbatch == nil {
		return nil
	}
	l.waveEpoch++
	// Collect into the reused flat scratch: word symbols back to back in
	// wvSyms, key bytes back to back in kb, per-word start offsets
	// alongside. Appends may move the flat buffers, so the per-word
	// headers are carved only after collection finishes — the whole wave
	// then costs a bounded handful of allocations (buffer growth plus
	// one key blob) instead of a word slice and a key string per query.
	l.wvSyms = l.wvSyms[:0]
	l.kb = l.kb[:0]
	l.wvOff = l.wvOff[:0]
	l.wvKOff = l.wvKOff[:0]
	l.wvWids = l.wvWids[:0]
	collect := func(id int32) {
		ent := l.rowEnt(id)
		for i := len(ent.bits); i < len(l.e); i++ {
			wid := l.walk(id, l.eSyms[i])
			if l.ans[wid] != ansUnknown || l.waveMark[wid] == l.waveEpoch {
				continue
			}
			l.waveMark[wid] = l.waveEpoch
			l.wvOff = append(l.wvOff, int32(len(l.wvSyms)))
			l.wvSyms = l.tr.appendWord(l.wvSyms, wid)
			l.wvKOff = append(l.wvKOff, int32(len(l.kb)))
			l.kb = l.tr.appendKey(l.kb, wid)
			l.wvWids = append(l.wvWids, wid)
		}
	}
	for _, sid := range l.s[from:] {
		collect(sid)
	}
	for _, sid := range l.s[from:] {
		for ai := range l.alphabet {
			eid := l.extID(sid, ai)
			if l.isInS(eid) {
				continue // its own row and extensions are collected as an S entry
			}
			collect(eid)
		}
	}
	n := len(l.wvWids)
	if n == 0 {
		return nil
	}
	words := l.wvWords[:0]
	if cap(words) < n {
		words = make([][]string, 0, n)
	}
	keys := l.wvKeys[:0]
	if cap(keys) < n {
		keys = make([]string, 0, n)
	}
	blob := string(l.kb)
	for i := 0; i < n; i++ {
		we, ke := int32(len(l.wvSyms)), int32(len(blob))
		if i+1 < n {
			we, ke = l.wvOff[i+1], l.wvKOff[i+1]
		}
		ws := l.wvOff[i]
		words = append(words, l.wvSyms[ws:we:we])
		keys = append(keys, blob[l.wvKOff[i]:ke])
	}
	l.wvWords, l.wvKeys = words, keys
	return l.askWave(words, keys, l.wvWids)
}

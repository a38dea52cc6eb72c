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

// IDBatchTeacher is the ID form of BatchTeacher (see IDTeacher): the
// learner passes each word's node ID only, and the answer slice is
// indexed like ids. The ids slice is only valid for the duration of the
// call.
type IDBatchTeacher interface {
	IDTeacher
	MemberBatchID(ids []int32) ([]bool, error)
}

// SerialAdapter adapts any single-query Teacher to the batch seam by
// asking the set in index order, one Member call per word — today's
// single-query teachers (test doubles, replay logs, teacher.Sim used
// serially) keep working unchanged behind it, with an unchanged
// dialogue.
type SerialAdapter struct{ T Teacher }

func (a SerialAdapter) Member(w []string) (bool, error) { return a.T.Member(w) }

func (a SerialAdapter) Equivalent(h *pathre.DFA) ([]string, bool, error) {
	return a.T.Equivalent(h)
}

// MemberBatch answers the set serially, in index order.
func (a SerialAdapter) MemberBatch(words [][]string) ([]bool, error) {
	out := make([]bool, len(words))
	for i, w := range words {
		v, err := a.T.Member(w)
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
// asking the same cells one at a time. An ID batch teacher gets the IDs
// alone; only a plain BatchTeacher has the wave's words built for it.
func (l *learner) askWave(wids []int32) error {
	if len(wids) == 0 {
		return nil
	}
	var ans []bool
	var err error
	if l.idBatch != nil {
		ans, err = l.idBatch.MemberBatchID(wids)
	} else {
		ans, err = l.batch.MemberBatch(l.waveWords(wids))
	}
	if err != nil {
		return err
	}
	if len(ans) != len(wids) {
		return fmt.Errorf("angluin: batch teacher answered %d of %d queries", len(ans), len(wids))
	}
	l.stats.BatchRounds++
	l.stats.BatchedQueries += len(wids)
	for i, wid := range wids {
		l.setAns(wid, ans[i])
		l.stats.MembershipQueries++
	}
	return nil
}

// waveWords materializes a wave's words for a plain BatchTeacher: one
// flat symbol buffer sized to the wave and one slice header per word,
// fresh per wave, so nothing the teacher might keep is reused.
func (l *learner) waveWords(wids []int32) [][]string {
	n := 0
	for _, id := range wids {
		n += int(l.tr.depth[id])
	}
	flat := make([]string, 0, n)
	words := make([][]string, len(wids))
	for i, id := range wids {
		start := len(flat)
		flat = l.tr.appendWord(flat, id)
		words[i] = flat[start:len(flat):len(flat)]
	}
	return words
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
	if l.batch == nil && l.idBatch == nil {
		return nil
	}
	l.waveEpoch++
	// The wave is its word IDs, collected into reused scratch: a warm
	// wave allocates nothing.
	l.wvWids = l.wvWids[:0]
	collect := func(id int32) {
		ent := l.rowEnt(id)
		for i := len(ent.bits); i < len(l.e); i++ {
			wid := l.walk(id, l.eSyms[i])
			if l.ans[wid] != ansUnknown || l.waveMark[wid] == l.waveEpoch {
				continue
			}
			l.waveMark[wid] = l.waveEpoch
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
	return l.askWave(l.wvWids)
}

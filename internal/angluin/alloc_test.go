//go:build !race

package angluin

import "testing"

// waveTeacher is an ID batch teacher that answers every wave from one
// preallocated buffer and never reads a word.
type waveTeacher struct {
	perfectTeacher
	ans   []bool
	asked int
}

func (t *waveTeacher) MemberID(int32) (bool, error) { return false, nil }

func (t *waveTeacher) MemberBatchID(ids []int32) ([]bool, error) {
	t.asked += len(ids)
	return t.ans[:len(ids)], nil
}

// TestPrefillWaveAllocs pins the batch wave to zero allocations: once
// the trie nodes, the row entries and the wave scratch exist, collecting
// a closedness wave and shipping it to an ID batch teacher builds no
// word and allocates nothing. (Skipped under -race: the detector's
// instrumentation allocates.)
func TestPrefillWaveAllocs(t *testing.T) {
	wt := &waveTeacher{ans: make([]bool, 1<<12)}
	l := &learner{alphabet: alphabet, teacher: wt, maxEQ: 1000}
	l.idt, l.idBatch = wt, wt
	done, err := l.attachWords()
	if err != nil {
		t.Fatal(err)
	}
	defer done()
	l.adopt(new(scratch))
	l.grow()
	l.s = append(l.s[:0], 0)
	l.rowEnt(0).inS = true
	l.e = [][]string{{}, {"item"}, {"regions", "asia"}}
	for _, e := range l.e {
		syms := make([]int32, len(e))
		for i, s := range e {
			syms[i] = l.tr.resolve(s)
		}
		l.eSyms = append(l.eSyms, syms)
	}
	for _, w := range [][]string{{"site"}, {"site", "regions"}, {"site", "regions", "europe"}} {
		l.addPrefix(l.internWord(w))
	}
	wave := func() {
		clear(l.ans)
		l.prefilled = 0
		if err := l.prefill(); err != nil {
			t.Fatal(err)
		}
	}
	wave()
	if wt.asked == 0 {
		t.Fatal("the wave asked nothing")
	}
	if allocs := testing.AllocsPerRun(50, wave); allocs != 0 {
		t.Fatalf("warm prefill wave allocates %.1f times, want 0", allocs)
	}
}

package xq

import (
	"sync"

	"repro/internal/xmldoc"
)

// sharedExtentMax bounds the store: on overflow it is dropped
// wholesale and refills — a speed valve, never a correctness mechanism.
const sharedExtentMax = 1 << 15

// SharedExtents is the only extent memo: a cross-evaluator store of
// pinned extents for one immutable (document, query tree) pair — in
// practice the ground-truth tree a scenario's teachers evaluate, the
// most expensive recomputation when many sessions learn against the
// same spec.
//
// Concurrency model: the maps are guarded by an RWMutex; the extent
// slices are immutable after publish (publishers hand over ownership
// and never write again; readers copy before returning to callers).
// Keys are query-node pointer identities, so the store must only be
// attached to evaluators whose trees are never mutated — see
// Evaluator.ShareExtents.
type SharedExtents struct {
	mu    sync.RWMutex
	m     map[*Node]map[string][]*xmldoc.Node
	count int
}

// NewSharedExtents returns an empty store.
func NewSharedExtents() *SharedExtents {
	return &SharedExtents{m: map[*Node]map[string][]*xmldoc.Node{}}
}

// get returns the published extent for (query node, pinned
// fingerprint). The returned slice is shared and must not be mutated.
func (s *SharedExtents) get(n *Node, fp []byte) ([]*xmldoc.Node, bool) {
	s.mu.RLock()
	ext, ok := s.m[n][string(fp)]
	s.mu.RUnlock()
	return ext, ok
}

// put publishes a computed extent. The slice becomes store-owned and
// immutable; first publish wins (a concurrent identical computation is
// discarded, keeping every reader on one canonical slice).
func (s *SharedExtents) put(n *Node, fp []byte, ext []*xmldoc.Node) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.count >= sharedExtentMax {
		s.m = map[*Node]map[string][]*xmldoc.Node{}
		s.count = 0
	}
	m := s.m[n]
	if m == nil {
		m = map[string][]*xmldoc.Node{}
		s.m[n] = m
	}
	if _, ok := m[string(fp)]; ok {
		return
	}
	m[string(fp)] = ext
	s.count++
}

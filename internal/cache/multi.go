package cache

import "fmt"

// MultiCache is a bank of K independent cache configurations driven by
// one access stream. The replay engine's own bank is core's multiPort;
// MultiCache is kept for edbench's probe, the only caller of Bank. Every
// member owns its full simulator state — tag/LRU slabs, packed
// valid/dirty masks, enabled mask — so members may differ in
// geometry and gating, and each one's behaviour is exactly that of a
// standalone Cache fed the same op sequence. What the bank shares is
// the *stream*: AccessBatch takes one op chunk (built by one cursor
// walk and one classification pass upstream) and runs it through every
// member's hoisted inner loop, so a K-configuration sweep pays the
// trace work once instead of K times. Members whose LineBytes and Sets
// agree share the same set-index/tag decomposition by construction —
// each inner loop recomputes the split from its own registers, so
// nothing needs to be precomputed per member.
//
// Like Cache, a MultiCache holds per-run mutable state and is not safe
// for concurrent use.
type MultiCache struct {
	members []*Cache
}

// Bank wraps already-constructed caches (way gating applied by the
// caller) into a bank. The caches must not be nil and must not be
// driven outside the bank while it is in use.
func Bank(members ...*Cache) (*MultiCache, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("cache: empty multi-cache bank")
	}
	for i, c := range members {
		if c == nil {
			return nil, fmt.Errorf("cache: nil bank member %d", i)
		}
	}
	return &MultiCache{members: members}, nil
}

// Len returns the number of bank members.
func (m *MultiCache) Len() int { return len(m.members) }

// Member returns the k-th member for state setup (way gating), flushes
// and inspection. Driving it with scalar Access between AccessBatch
// calls is allowed — the bank adds no state of its own.
func (m *MultiCache) Member(k int) *Cache { return m.members[k] }

// AccessBatch performs the ops in order on every member, writing member
// k's i-th outcome into results[k][i]. Each results[k] must hold at
// least len(ops) entries. The call is semantically identical to calling
// AccessBatch(ops, results[k]) on K standalone caches — members are
// independent state, so the member loop order is unobservable — but the
// op chunk is built (and its cursor walked) once for all of them.
func (m *MultiCache) AccessBatch(ops []Op, results [][]Result) {
	if len(results) < len(m.members) {
		panic(fmt.Sprintf("cache: MultiCache result set %d too small for %d members", len(results), len(m.members)))
	}
	for k, c := range m.members {
		c.AccessBatch(ops, results[k])
	}
}

// Flush invalidates every member, returning the per-member dirty-line
// counts.
func (m *MultiCache) Flush() []int {
	dirty := make([]int, len(m.members))
	for k, c := range m.members {
		dirty[k] = c.Flush()
	}
	return dirty
}

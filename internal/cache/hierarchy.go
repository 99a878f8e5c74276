package cache

import (
	"fmt"
	"slices"
)

// Hierarchy chains a private L1 in front of zero or more (possibly
// shared) L2s, all the same SoA engine. The L1 filters the reference
// stream; only its misses reach an L2 — a demand fill read per miss,
// followed by a write for the displaced line when it was dirty
// (write-back propagation). An L2 is inclusive of nothing by
// construction: it simply absorbs the L1's miss traffic with its own
// LRU/write-allocate policy, which is the paper-faithful composition of
// two independent set-associative levels. So the L1 never depends on
// what lies behind it, and several L2s — tiers 0, 1, ... in
// construction order — can each absorb the same traffic as alternative
// second levels of one L1.
//
// The batch path keeps the SoA engine's contract: one L1 AccessBatch
// per chunk, whose Result slice is folded once into an L2 op batch —
// then one AccessBatch per tier over it, no per-op fan-out. For each L1
// miss the demand fill is issued first (the fetch the core is stalled
// on), then the victim write-back drains behind it; that fixed order is
// the deterministic interleaving contract the property tests pin down.
//
// A shared L2 is expressed structurally: several Hierarchies (one per
// core, or one per side of a split I/D L1) constructed around the same
// *Cache. Like Cache itself, a Hierarchy is single-goroutine; sharing
// an L2 across cpu streams is serialised by the caller's chunk schedule
// (cpu.RunShared), which thereby *is* the interleaving semantics.
type Hierarchy struct {
	l1  *Cache
	l2s []*Cache

	// Per-chunk L2 traffic, rebuilt by every AccessBatch/Access call
	// and readable until the next one — core tallies energy from it.
	l2ops []Op
	l2res [][]Result // per tier, parallel to l2ops

	// fillMisses[t] counts demand fill reads that missed tier t (memory
	// fetches); write-back writes that miss allocate but do not count.
	fillMisses []uint64
}

// NewHierarchy builds a hierarchy of one L1 in front of the given L2s
// over existing caches. Every level must agree on line size — the L1's
// victim lines become L2 writes verbatim. An L2 may be shared with
// other Hierarchies.
func NewHierarchy(l1 *Cache, l2s ...*Cache) (*Hierarchy, error) {
	if l1 == nil {
		return nil, fmt.Errorf("cache: hierarchy needs an L1")
	}
	for t, l2 := range l2s {
		if l2 == nil || l2 == l1 {
			return nil, fmt.Errorf("cache: hierarchy L2 %d is nil or the L1 itself", t)
		}
		if l1.cfg.LineBytes != l2.cfg.LineBytes {
			return nil, fmt.Errorf("cache: hierarchy line sizes differ (L1 %d B, L2 %d: %d B)",
				l1.cfg.LineBytes, t, l2.cfg.LineBytes)
		}
	}
	return &Hierarchy{l1: l1, l2s: l2s, l2res: make([][]Result, len(l2s)), fillMisses: make([]uint64, len(l2s))}, nil
}

// MustNewHierarchy is NewHierarchy, panicking on error.
func MustNewHierarchy(l1 *Cache, l2s ...*Cache) *Hierarchy {
	h, err := NewHierarchy(l1, l2s...)
	if err != nil {
		panic(err)
	}
	return h
}

// L1 returns the first level.
func (h *Hierarchy) L1() *Cache { return h.l1 }

// L2 returns tier t's second level.
func (h *Hierarchy) L2(t int) *Cache { return h.l2s[t] }

// AccessBatch replays one chunk: a single L1 AccessBatch, then, behind
// any L2, a single AccessBatch per tier over the miss traffic the L1
// results imply. res receives the L1 results (the hit/miss signal the
// core times against); the chunk's L2 ops and each tier's results stay
// readable via L2Ops/L2Results until the next access. An op standing
// for a run of accesses to one line (Op.Rep) sends the L2 traffic of
// its first access only, the one access of the run that can miss.
func (h *Hierarchy) AccessBatch(ops []Op, res []Result) {
	h.l1.AccessBatch(ops, res)
	if len(h.l2s) == 0 {
		return
	}
	h.l2ops = h.l2ops[:0]
	for i := range ops {
		r := &res[i]
		if r.Hit {
			continue
		}
		h.l2ops = append(h.l2ops, Op{Addr: ops[i].Addr})
		if r.Writeback {
			h.l2ops = append(h.l2ops, Op{Addr: r.Victim, Write: true})
		}
	}
	n := len(h.l2ops)
	for t, l2 := range h.l2s {
		rs := slices.Grow(h.l2res[t][:0], n)[:n] // amortised like l2ops' appends
		h.l2res[t] = rs
		l2.AccessBatch(h.l2ops, rs)
		for i := range h.l2ops {
			if !h.l2ops[i].Write && !rs[i].Hit {
				h.fillMisses[t]++
			}
		}
	}
}

// Access is the scalar path: a one-op chunk through AccessBatch, so the
// scalar and batched replays share one L2 interleaving rule.
func (h *Hierarchy) Access(addr uint32, write bool) Result {
	var r [1]Result
	h.AccessBatch([]Op{{Addr: addr, Write: write}}, r[:])
	return r[0]
}

// L2Ops returns the L2 op batch of the most recent chunk.
func (h *Hierarchy) L2Ops() []Op { return h.l2ops }

// L2Results returns tier t's L2 results of the most recent chunk,
// parallel to L2Ops.
func (h *Hierarchy) L2Results(t int) []Result { return h.l2res[t] }

// FillMisses returns the running count of demand fill reads that missed
// tier t's L2 — the memory fetches behind it. cpu's tiered timing
// charges full memory latency for exactly these.
func (h *Hierarchy) FillMisses(t int) uint64 { return h.fillMisses[t] }

package cache

import "fmt"

// Hierarchy chains two cache levels: a private L1 in front of a
// (possibly shared) L2, both the same SoA engine. The L1 filters the
// reference stream; only its misses reach the L2 — a demand fill read
// per miss, followed by a write for the displaced line when it was
// dirty (write-back propagation). The L2 is inclusive of nothing by
// construction: it simply absorbs the L1's miss traffic with its own
// LRU/write-allocate policy, which is the paper-faithful composition of
// two independent set-associative levels.
//
// The batch path keeps the SoA engine's contract: one L1 AccessBatch
// per chunk, whose Result slice is folded into a single L2 op batch —
// one L2 AccessBatch per chunk, no per-op fan-out. For each L1 miss the
// demand fill is issued first (the fetch the core is stalled on), then
// the victim write-back drains behind it; that fixed order is the
// deterministic interleaving contract the property tests pin down.
//
// A shared L2 is expressed structurally: several Hierarchies (one per
// core, or one per side of a split I/D L1) constructed around the same
// *Cache. Like Cache itself, a Hierarchy is single-goroutine; sharing
// an L2 across cpu streams is serialised by the caller's chunk schedule
// (cpu.RunShared), which thereby *is* the interleaving semantics.
type Hierarchy struct {
	l1, l2 *Cache

	// Per-chunk L2 traffic, rebuilt by every AccessBatch/Access call
	// and readable until the next one — core tallies energy from it.
	l2ops []Op
	l2res []Result

	// fillMisses counts demand fill reads that missed the L2 (memory
	// fetches). Write-back writes that miss allocate in the L2 but are
	// not demand fetches and do not count.
	fillMisses uint64

	one    [1]Op // scratch for the scalar path
	oneRes [1]Result
}

// NewHierarchy builds a two-level hierarchy over existing caches. The
// levels must agree on line size — the L1's victim lines become L2
// writes verbatim. l2 may be shared with other Hierarchies.
func NewHierarchy(l1, l2 *Cache) (*Hierarchy, error) {
	if l1 == nil || l2 == nil {
		return nil, fmt.Errorf("cache: hierarchy needs both levels")
	}
	if l1 == l2 {
		return nil, fmt.Errorf("cache: hierarchy levels must be distinct caches")
	}
	if l1.cfg.LineBytes != l2.cfg.LineBytes {
		return nil, fmt.Errorf("cache: hierarchy line sizes differ (L1 %d B, L2 %d B)",
			l1.cfg.LineBytes, l2.cfg.LineBytes)
	}
	return &Hierarchy{l1: l1, l2: l2}, nil
}

// MustNewHierarchy is NewHierarchy, panicking on error.
func MustNewHierarchy(l1, l2 *Cache) *Hierarchy {
	h, err := NewHierarchy(l1, l2)
	if err != nil {
		panic(err)
	}
	return h
}

// L1 returns the first level.
func (h *Hierarchy) L1() *Cache { return h.l1 }

// L2 returns the second level.
func (h *Hierarchy) L2() *Cache { return h.l2 }

// AccessBatch replays one chunk through both levels: a single L1
// AccessBatch, then a single L2 AccessBatch over the miss traffic the
// L1 results imply. res receives the L1 results (the hit/miss signal
// the core times against); the chunk's L2 ops and results stay
// readable via L2Ops/L2Results until the next access.
func (h *Hierarchy) AccessBatch(ops []Op, res []Result) {
	h.l1.AccessBatch(ops, res)
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
	h.l2res = growResults(h.l2res, len(h.l2ops))
	h.l2.AccessBatch(h.l2ops, h.l2res)
	for i := range h.l2ops {
		if !h.l2ops[i].Write && !h.l2res[i].Hit {
			h.fillMisses++
		}
	}
}

// Access is the scalar path: a one-op chunk through AccessBatch, so the
// scalar and batched replays share one L2 interleaving rule.
func (h *Hierarchy) Access(addr uint32, write bool) Result {
	h.one[0] = Op{Addr: addr, Write: write}
	h.AccessBatch(h.one[:], h.oneRes[:])
	return h.oneRes[0]
}

// L2Ops returns the L2 op batch of the most recent chunk.
func (h *Hierarchy) L2Ops() []Op { return h.l2ops }

// L2Results returns the L2 results of the most recent chunk, parallel
// to L2Ops.
func (h *Hierarchy) L2Results() []Result { return h.l2res }

// FillMisses returns the running count of demand fill reads that missed
// the L2 — the hierarchy's memory fetches. cpu's tiered timing charges
// full memory latency for exactly these.
func (h *Hierarchy) FillMisses() uint64 { return h.fillMisses }

// Flush drains the whole hierarchy: the L1's dirty lines are written
// into the L2 as one deterministic write batch (DrainDirty order), then
// the L2 is flushed. It returns the per-level dirty counts — L1 lines
// written down, and L2 lines (including just-absorbed ones) written to
// memory. With a shared L2, flushing one Hierarchy drains the shared
// level too; callers coordinating several cores flush the L1s first.
func (h *Hierarchy) Flush() (l1Dirty, l2Dirty int) {
	h.l2ops = h.l2ops[:0]
	l1Dirty = h.l1.DrainDirty(func(addr uint32) {
		h.l2ops = append(h.l2ops, Op{Addr: addr, Write: true})
	})
	h.l2res = growResults(h.l2res, len(h.l2ops))
	h.l2.AccessBatch(h.l2ops, h.l2res)
	return l1Dirty, h.l2.Flush()
}

// growResults returns a slice of exactly n Results, reusing buf's
// backing array when it is large enough.
func growResults(buf []Result, n int) []Result {
	if cap(buf) < n {
		return make([]Result, n)
	}
	return buf[:n]
}

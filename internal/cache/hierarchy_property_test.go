package cache

import (
	"math/rand"
	"testing"
)

// naiveHier is the two-level reference model: a naive AoS cache per
// level, L1 misses replayed one by one onto each L2 in the Hierarchy's
// documented order (demand fill read first, then the dirty victim's
// write-back). Everything the Hierarchy batches — the single L2 op
// batch per chunk, one AccessBatch per tier over it, the reused op
// buffers, the per-tier fill-miss counters — must be invisible against
// this op-at-a-time model, in which every L2 is fed the L1's traffic on
// its own.
type naiveHier struct {
	l1         *naiveCache
	l2s        []*naiveCache // each may be shared between naiveHiers
	fillMisses []uint64      // per L2
	l2ops      []Op
	l2res      [][]Result // per L2
}

func newNaiveHier(l1 *naiveCache, l2s ...*naiveCache) *naiveHier {
	return &naiveHier{l1: l1, l2s: l2s, fillMisses: make([]uint64, len(l2s)), l2res: make([][]Result, len(l2s))}
}

func (n *naiveHier) accessBatch(ops []Op) []Result {
	res := make([]Result, len(ops))
	for i, op := range ops {
		res[i] = n.l1.access(op.Addr, op.Write)
	}
	n.l2ops = n.l2ops[:0]
	for i := range ops {
		if res[i].Hit {
			continue
		}
		n.l2ops = append(n.l2ops, Op{Addr: ops[i].Addr})
		if res[i].Writeback {
			n.l2ops = append(n.l2ops, Op{Addr: res[i].Victim, Write: true})
		}
	}
	for t, l2 := range n.l2s {
		n.l2res[t] = n.l2res[t][:0]
		for _, op := range n.l2ops {
			r := l2.access(op.Addr, op.Write)
			n.l2res[t] = append(n.l2res[t], r)
			if !op.Write && !r.Hit {
				n.fillMisses[t]++
			}
		}
	}
	return res
}

// checkChunk compares one chunk's full outcome — L1 results and, per
// tier, the L2 op batch the Hierarchy derived, the L2 results, and the
// fill-miss count.
func checkChunk(t *testing.T, tag string, step int, h *Hierarchy, ref *naiveHier, ops []Op, got, want []Result) {
	t.Helper()
	for i := range ops {
		if got[i] != want[i] {
			t.Fatalf("%s step %d: op %d (%+v) L1 = %+v, naive model %+v",
				tag, step, i, ops[i], got[i], want[i])
		}
	}
	for tr := range ref.l2s {
		hOps, hRes := h.L2Ops(), h.L2Results(tr)
		if len(hOps) != len(ref.l2ops) || len(hRes) != len(ref.l2res[tr]) {
			t.Fatalf("%s step %d: tier %d L2 batch sizes %d/%d, naive model %d/%d",
				tag, step, tr, len(hOps), len(hRes), len(ref.l2ops), len(ref.l2res[tr]))
		}
		for i := range hOps {
			if hOps[i] != ref.l2ops[i] {
				t.Fatalf("%s step %d: L2 op %d = %+v, naive model %+v", tag, step, i, hOps[i], ref.l2ops[i])
			}
			if hRes[i] != ref.l2res[tr][i] {
				t.Fatalf("%s step %d: tier %d L2 result %d (op %+v) = %+v, naive model %+v",
					tag, step, tr, i, hOps[i], hRes[i], ref.l2res[tr][i])
			}
		}
		if h.FillMisses(tr) != ref.fillMisses[tr] {
			t.Fatalf("%s step %d: tier %d fill misses %d, naive model %d", tag, step, tr, h.FillMisses(tr), ref.fillMisses[tr])
		}
	}
}

// sameContents reports whether h's levels and ref's agree on whether
// addr is resident, level by level.
func sameContents(h *Hierarchy, ref *naiveHier, addr uint32) bool {
	if h.L1().Contains(addr) != ref.l1.contains(addr) {
		return false
	}
	for tr, l2 := range ref.l2s {
		if h.L2(tr).Contains(addr) != l2.contains(addr) {
			return false
		}
	}
	return true
}

// TestPropertyHierarchyMatchesNaiveTwoLevelModel differentially proves
// the L1→L2 composition: random interleavings of scalar accesses,
// batched chunks and per-level way gating must behave identically on
// the batched Hierarchy and the op-at-a-time two-level AoS oracle —
// including the write-back propagation order and the demand-fill miss
// count the cpu timing rides on. One L1 in front of two or three L2s
// must leave each L2 as the oracle leaves that L2 fed the L1's traffic
// alone, and an L1 with no L2 must be the plain L1.
func TestPropertyHierarchyMatchesNaiveTwoLevelModel(t *testing.T) {
	cases := []struct {
		name string
		l1   Config
		l2s  []Config
	}{
		{"paperL1_bigL2", Config{Sets: 32, Ways: 8, LineBytes: 32}, []Config{{Sets: 128, Ways: 8, LineBytes: 32}}},
		{"tiny_conflict", Config{Sets: 4, Ways: 2, LineBytes: 16}, []Config{{Sets: 16, Ways: 4, LineBytes: 16}}},
		{"l2_smaller_than_l1", Config{Sets: 8, Ways: 4, LineBytes: 32}, []Config{{Sets: 4, Ways: 2, LineBytes: 32}}},
		{"direct_mapped_l2", Config{Sets: 8, Ways: 2, LineBytes: 32}, []Config{{Sets: 64, Ways: 1, LineBytes: 32}}},
		{"two_l2s", Config{Sets: 8, Ways: 4, LineBytes: 32},
			[]Config{{Sets: 16, Ways: 4, LineBytes: 32}, {Sets: 64, Ways: 8, LineBytes: 32}}},
		{"three_l2s", Config{Sets: 4, Ways: 2, LineBytes: 16},
			[]Config{{Sets: 16, Ways: 4, LineBytes: 16}, {Sets: 4, Ways: 2, LineBytes: 16}, {Sets: 64, Ways: 1, LineBytes: 16}}},
		{"l1_alone", Config{Sets: 8, Ways: 2, LineBytes: 32}, nil},
	}
	for _, tc := range cases {
		l2s, naiveL2s := make([]*Cache, len(tc.l2s)), make([]*naiveCache, len(tc.l2s))
		seed, biggest := int64(tc.l1.Sets*1000), 0
		for i, cfg := range tc.l2s {
			l2s[i], naiveL2s[i] = MustNew(cfg), newNaive(cfg)
			seed += int64(cfg.Sets)
			biggest = max(biggest, cfg.SizeBytes())
		}
		h := MustNewHierarchy(MustNew(tc.l1), l2s...)
		ref := newNaiveHier(newNaive(tc.l1), naiveL2s...)
		rng := rand.New(rand.NewSource(seed))
		addrSpace := uint32((tc.l1.SizeBytes() + biggest) * 2)
		var cursor uint32
		randAddr := func() uint32 {
			if rng.Intn(2) == 0 {
				cursor = (cursor + 4) % addrSpace
				return cursor
			}
			return rng.Uint32() % addrSpace
		}
		ops := make([]Op, 256)
		res := make([]Result, 256)
		for step := 0; step < 20_000; step++ {
			switch k := rng.Intn(100); {
			case k < 50: // scalar access (a one-op chunk)
				addr, write := randAddr(), rng.Intn(4) == 0
				got := h.Access(addr, write)
				want := ref.accessBatch([]Op{{Addr: addr, Write: write}})
				checkChunk(t, tc.name, step, h, ref, []Op{{Addr: addr, Write: write}}, []Result{got}, want)
			case k < 90: // batched chunk of 1..256 ops
				n := 1 + rng.Intn(len(ops))
				for i := 0; i < n; i++ {
					ops[i] = Op{Addr: randAddr(), Write: rng.Intn(4) == 0}
				}
				h.AccessBatch(ops[:n], res[:n])
				want := ref.accessBatch(ops[:n])
				checkChunk(t, tc.name, step, h, ref, ops[:n], res[:n], want)
			default: // gate a way of any level (never the last one)
				c, nc := h.L1(), ref.l1
				if level := rng.Intn(1 + len(l2s)); level > 0 {
					c, nc = h.L2(level-1), ref.l2s[level-1]
				}
				way := rng.Intn(c.Config().Ways)
				on := rng.Intn(2) == 0
				if !on && c.EnabledWays() == 1 && c.WayEnabled(way) {
					on = true
				}
				c.SetWayEnabled(way, on)
				nc.setWayEnabled(way, on)
			}
			if step%89 == 0 { // read-only state probe on every level
				if addr := randAddr(); !sameContents(h, ref, addr) {
					t.Fatalf("%s step %d: Contains(%#x) diverged", tc.name, step, addr)
				}
			}
		}
		for a := uint32(0); a < addrSpace; a += uint32(tc.l1.LineBytes) {
			if !sameContents(h, ref, a) {
				t.Fatalf("%s: final state diverged at %#x", tc.name, a)
			}
		}
	}
}

// TestPropertySharedL2TwoStreams drives two Hierarchies built around
// one shared L2 — the multi-core arrangement cpu.RunShared serialises —
// with randomly alternating chunks, against two naive two-level models
// sharing a single naive L2. The chunk schedule is the interleaving
// semantics: replaying chunks in the same order must leave both private
// L1s and the shared level bit-identical to the oracle.
func TestPropertySharedL2TwoStreams(t *testing.T) {
	l1cfg := Config{Sets: 8, Ways: 2, LineBytes: 32}
	l2cfg := Config{Sets: 16, Ways: 4, LineBytes: 32} // small: real cross-stream thrash
	l2 := MustNew(l2cfg)
	refL2 := newNaive(l2cfg)
	hs := [2]*Hierarchy{
		MustNewHierarchy(MustNew(l1cfg), l2),
		MustNewHierarchy(MustNew(l1cfg), l2),
	}
	refs := [2]*naiveHier{
		newNaiveHier(newNaive(l1cfg), refL2),
		newNaiveHier(newNaive(l1cfg), refL2),
	}
	rng := rand.New(rand.NewSource(7))
	addrSpace := uint32(l2cfg.SizeBytes() * 3)
	ops := make([]Op, 128)
	res := make([]Result, 128)
	for step := 0; step < 20_000; step++ {
		s := rng.Intn(2) // which stream issues this chunk
		n := 1 + rng.Intn(len(ops))
		for i := 0; i < n; i++ {
			ops[i] = Op{Addr: rng.Uint32() % addrSpace, Write: rng.Intn(3) == 0}
		}
		hs[s].AccessBatch(ops[:n], res[:n])
		want := refs[s].accessBatch(ops[:n])
		checkChunk(t, "shared", step, hs[s], refs[s], ops[:n], res[:n], want)
		// The shared counter invariant: each stream tracks only its own
		// demand misses, while the L2 state below is common.
		if step%101 == 0 {
			addr := rng.Uint32() % addrSpace
			if l2.Contains(addr) != refL2.contains(addr) {
				t.Fatalf("shared step %d: shared L2 Contains(%#x) diverged", step, addr)
			}
		}
	}
	for a := uint32(0); a < addrSpace; a += uint32(l2cfg.LineBytes) {
		if l2.Contains(a) != refL2.contains(a) {
			t.Fatalf("shared: final shared-L2 state diverged at %#x", a)
		}
		if hs[0].L1().Contains(a) != refs[0].l1.contains(a) || hs[1].L1().Contains(a) != refs[1].l1.contains(a) {
			t.Fatalf("shared: final private-L1 state diverged at %#x", a)
		}
	}
}

// TestNewHierarchyRejects pins the construction checks: every L2 must
// exist, differ from the L1 and share the L1's line size.
func TestNewHierarchyRejects(t *testing.T) {
	l1cfg := Config{Sets: 8, Ways: 2, LineBytes: 32}
	l1, l2 := MustNew(l1cfg), MustNew(Config{Sets: 16, Ways: 4, LineBytes: 32})
	for name, l2s := range map[string][]*Cache{
		"nil L2":     {nil},
		"L1 as L2":   {l1},
		"line sizes": {MustNew(Config{Sets: 16, Ways: 4, LineBytes: 16})},
	} {
		if _, err := NewHierarchy(l1, l2s...); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := NewHierarchy(nil); err == nil {
		t.Error("nil L1: accepted")
	}
	if _, err := NewHierarchy(l1, l2, MustNew(l1cfg)); err != nil {
		t.Errorf("two L2s: %v", err)
	}
}

package cache

import (
	"math/rand"
	"testing"
)

// naiveHier is the two-level reference model: a naive AoS cache per
// level, L1 misses replayed one by one onto the L2 in the Hierarchy's
// documented order (demand fill read first, then the dirty victim's
// write-back). Everything the Hierarchy batches — the single L2
// AccessBatch per chunk, the reused op buffers, the fill-miss counter —
// must be invisible against this op-at-a-time model.
type naiveHier struct {
	l1, l2     *naiveCache // l2 may be shared between naiveHiers
	fillMisses uint64
	l2ops      []Op
	l2res      []Result
}

func (n *naiveHier) accessBatch(ops []Op) []Result {
	res := make([]Result, len(ops))
	for i, op := range ops {
		res[i] = n.l1.access(op.Addr, op.Write)
	}
	n.l2ops = n.l2ops[:0]
	n.l2res = n.l2res[:0]
	for i := range ops {
		if res[i].Hit {
			continue
		}
		n.l2ops = append(n.l2ops, Op{Addr: ops[i].Addr})
		if res[i].Writeback {
			n.l2ops = append(n.l2ops, Op{Addr: res[i].Victim, Write: true})
		}
	}
	for _, op := range n.l2ops {
		r := n.l2.access(op.Addr, op.Write)
		n.l2res = append(n.l2res, r)
		if !op.Write && !r.Hit {
			n.fillMisses++
		}
	}
	return res
}

// drainDirty mirrors Cache.DrainDirty: invalidate everything, emitting
// dirty line addresses in set-ascending, way-ascending order.
func (n *naiveCache) drainDirty(emit func(addr uint32)) int {
	dirty := 0
	for set := 0; set < n.cfg.Sets; set++ {
		for w := 0; w < n.cfg.Ways; w++ {
			ln := &n.lines[set*n.cfg.Ways+w]
			if ln.valid && ln.dirty {
				emit(ln.tag<<(n.offBits+n.idxBits) | uint32(set)<<n.offBits)
				dirty++
			}
			*ln = naiveLine{}
		}
	}
	return dirty
}

func (n *naiveHier) flush() (l1Dirty, l2Dirty int) {
	l1Dirty = n.l1.drainDirty(func(addr uint32) {
		n.l2.access(addr, true)
	})
	return l1Dirty, n.l2.flush()
}

// checkChunk compares one chunk's full outcome — L1 results, the L2 op
// batch the Hierarchy derived, the L2 results, and the fill-miss count.
func checkChunk(t *testing.T, tag string, step int, h *Hierarchy, ref *naiveHier, ops []Op, got, want []Result) {
	t.Helper()
	for i := range ops {
		if got[i] != want[i] {
			t.Fatalf("%s step %d: op %d (%+v) L1 = %+v, naive model %+v",
				tag, step, i, ops[i], got[i], want[i])
		}
	}
	hOps, hRes := h.L2Ops(), h.L2Results()
	if len(hOps) != len(ref.l2ops) || len(hRes) != len(ref.l2res) {
		t.Fatalf("%s step %d: L2 batch sizes %d/%d, naive model %d/%d",
			tag, step, len(hOps), len(hRes), len(ref.l2ops), len(ref.l2res))
	}
	for i := range hOps {
		if hOps[i] != ref.l2ops[i] {
			t.Fatalf("%s step %d: L2 op %d = %+v, naive model %+v", tag, step, i, hOps[i], ref.l2ops[i])
		}
		if hRes[i] != ref.l2res[i] {
			t.Fatalf("%s step %d: L2 result %d (op %+v) = %+v, naive model %+v",
				tag, step, i, hOps[i], hRes[i], ref.l2res[i])
		}
	}
	if h.FillMisses() != ref.fillMisses {
		t.Fatalf("%s step %d: fill misses %d, naive model %d", tag, step, h.FillMisses(), ref.fillMisses)
	}
}

// TestPropertyHierarchyMatchesNaiveTwoLevelModel differentially proves
// the L1→L2 composition: random interleavings of scalar accesses,
// batched chunks, per-level way gating and full-hierarchy flushes must
// behave identically on the batched Hierarchy and the op-at-a-time
// two-level AoS oracle — including the write-back propagation order and
// the demand-fill miss count the cpu timing rides on.
func TestPropertyHierarchyMatchesNaiveTwoLevelModel(t *testing.T) {
	cases := []struct {
		name   string
		l1, l2 Config
	}{
		{"paperL1_bigL2", Config{Sets: 32, Ways: 8, LineBytes: 32}, Config{Sets: 128, Ways: 8, LineBytes: 32}},
		{"tiny_conflict", Config{Sets: 4, Ways: 2, LineBytes: 16}, Config{Sets: 16, Ways: 4, LineBytes: 16}},
		{"l2_smaller_than_l1", Config{Sets: 8, Ways: 4, LineBytes: 32}, Config{Sets: 4, Ways: 2, LineBytes: 32}},
		{"direct_mapped_l2", Config{Sets: 8, Ways: 2, LineBytes: 32}, Config{Sets: 64, Ways: 1, LineBytes: 32}},
	}
	for _, tc := range cases {
		h := MustNewHierarchy(MustNew(tc.l1), MustNew(tc.l2))
		ref := &naiveHier{l1: newNaive(tc.l1), l2: newNaive(tc.l2)}
		rng := rand.New(rand.NewSource(int64(tc.l1.Sets*1000 + tc.l2.Sets)))
		addrSpace := uint32((tc.l1.SizeBytes() + tc.l2.SizeBytes()) * 2)
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
			case k < 85: // batched chunk of 1..256 ops
				n := 1 + rng.Intn(len(ops))
				for i := 0; i < n; i++ {
					ops[i] = Op{Addr: randAddr(), Write: rng.Intn(4) == 0}
				}
				h.AccessBatch(ops[:n], res[:n])
				want := ref.accessBatch(ops[:n])
				checkChunk(t, tc.name, step, h, ref, ops[:n], res[:n], want)
			case k < 95: // gate a way of either level (never the last one)
				level := 1 + rng.Intn(2)
				c, nc := h.L1(), ref.l1
				if level == 2 {
					c, nc = h.L2(), ref.l2
				}
				way := rng.Intn(c.Config().Ways)
				on := rng.Intn(2) == 0
				if !on && c.EnabledWays() == 1 && c.WayEnabled(way) {
					on = true
				}
				c.SetWayEnabled(way, on)
				nc.setWayEnabled(way, on)
			default: // full-hierarchy flush
				gotL1, gotL2 := h.Flush()
				wantL1, wantL2 := ref.flush()
				if gotL1 != wantL1 || gotL2 != wantL2 {
					t.Fatalf("%s step %d: Flush = (%d, %d), naive model (%d, %d)",
						tc.name, step, gotL1, gotL2, wantL1, wantL2)
				}
			}
			if step%89 == 0 { // read-only state probe on both levels
				addr := randAddr()
				if h.L1().Contains(addr) != ref.l1.contains(addr) {
					t.Fatalf("%s step %d: L1 Contains(%#x) diverged", tc.name, step, addr)
				}
				if h.L2().Contains(addr) != ref.l2.contains(addr) {
					t.Fatalf("%s step %d: L2 Contains(%#x) diverged", tc.name, step, addr)
				}
			}
		}
		for a := uint32(0); a < addrSpace; a += uint32(tc.l1.LineBytes) {
			if h.L1().Contains(a) != ref.l1.contains(a) || h.L2().Contains(a) != ref.l2.contains(a) {
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
		{l1: newNaive(l1cfg), l2: refL2},
		{l1: newNaive(l1cfg), l2: refL2},
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

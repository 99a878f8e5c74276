package cache

import (
	"math/rand"
	"testing"
)

// TestPropertyMultiCacheMatchesIndependentCaches differentially proves
// the bank contract: a MultiCache driven by interleaved AccessBatch
// chunks, scalar member accesses, way gating and flushes must be
// bit-identical to K standalone Caches fed the same sequence. The
// configurations deliberately mix geometries (different sets, ways and
// line sizes in one bank), a gated member, and the 64-way full-mask
// edge config.
func TestPropertyMultiCacheMatchesIndependentCaches(t *testing.T) {
	cfgs := []Config{
		{Sets: 32, Ways: 8, LineBytes: 32}, // the paper's L1
		{Sets: 32, Ways: 2, LineBytes: 32}, // capacity-axis sibling
		{Sets: 4, Ways: 2, LineBytes: 16},  // different decomposition
		{Sets: 8, Ways: 1, LineBytes: 32},  // direct-mapped
		{Sets: 1, Ways: 64, LineBytes: 32}, // full mask word, one set
	}
	members := make([]*Cache, len(cfgs))
	for k, cfg := range cfgs {
		members[k] = MustNew(cfg)
	}
	bank, err := Bank(members...)
	if err != nil {
		t.Fatal(err)
	}
	if bank.Len() != len(cfgs) {
		t.Fatalf("bank has %d members, want %d", bank.Len(), len(cfgs))
	}
	refs := make([]*Cache, len(cfgs))
	for k, cfg := range cfgs {
		refs[k] = MustNew(cfg)
	}
	// Gate ways on one member before any traffic, the way core.newPort
	// does for ULE mode: gating state must survive banking.
	bank.Member(0).SetWayEnabled(1, false)
	refs[0].SetWayEnabled(1, false)

	rng := rand.New(rand.NewSource(7))
	addrSpace := uint32(cfgs[0].SizeBytes() * 4)
	ops := make([]Op, 512)
	res := make([][]Result, len(cfgs))
	want := make([]Result, 512)
	for k := range res {
		res[k] = make([]Result, 512)
	}
	for step := 0; step < 3_000; step++ {
		switch k := rng.Intn(100); {
		case k < 70: // banked batch of 1..512 ops
			n := 1 + rng.Intn(len(ops))
			for i := 0; i < n; i++ {
				ops[i] = Op{Addr: rng.Uint32() % addrSpace, Write: rng.Intn(4) == 0}
			}
			bank.AccessBatch(ops[:n], res)
			for m := range refs {
				refs[m].AccessBatch(ops[:n], want[:n])
				for i := 0; i < n; i++ {
					if res[m][i] != want[i] {
						t.Fatalf("step %d member %d op %d (%+v): bank %+v, standalone %+v",
							step, m, i, ops[i], res[m][i], want[i])
					}
				}
			}
		case k < 85: // scalar access straight through one member
			m := rng.Intn(len(refs))
			addr, write := rng.Uint32()%addrSpace, rng.Intn(4) == 0
			got := bank.Member(m).Access(addr, write)
			if exp := refs[m].Access(addr, write); got != exp {
				t.Fatalf("step %d member %d: Access(%#x, %v) = %+v, standalone %+v",
					step, m, addr, write, got, exp)
			}
		case k < 95: // gate a way on one member (never the last one off)
			m := rng.Intn(len(refs))
			way := rng.Intn(cfgs[m].Ways)
			on := rng.Intn(2) == 0
			if !on && bank.Member(m).EnabledWays() == 1 && bank.Member(m).WayEnabled(way) {
				on = true
			}
			bank.Member(m).SetWayEnabled(way, on)
			refs[m].SetWayEnabled(way, on)
		default: // bank-wide flush
			dirty := bank.Flush()
			for m := range refs {
				if exp := refs[m].Flush(); dirty[m] != exp {
					t.Fatalf("step %d member %d: Flush wrote back %d, standalone %d",
						step, m, dirty[m], exp)
				}
			}
		}
	}
	// Final state sweep on every member.
	for m, cfg := range cfgs {
		for a := uint32(0); a < addrSpace; a += uint32(cfg.LineBytes) {
			if bank.Member(m).Contains(a) != refs[m].Contains(a) {
				t.Fatalf("member %d: final state diverged at %#x", m, a)
			}
		}
	}
}

func TestMultiCacheConstructorErrors(t *testing.T) {
	if _, err := Bank(); err == nil {
		t.Fatal("empty Bank accepted")
	}
	if _, err := Bank(MustNew(Config{Sets: 4, Ways: 2, LineBytes: 32}), nil); err == nil {
		t.Fatal("nil Bank member accepted")
	}
}

func TestMultiCacheAccessBatchPanicsOnShortResults(t *testing.T) {
	bank, _ := Bank(
		MustNew(Config{Sets: 4, Ways: 2, LineBytes: 32}),
		MustNew(Config{Sets: 4, Ways: 4, LineBytes: 32}),
	)
	defer func() {
		if recover() == nil {
			t.Fatal("short result set accepted")
		}
	}()
	bank.AccessBatch([]Op{{Addr: 0}}, [][]Result{make([]Result, 1)})
}

// TestPropertyStackProfileMatchesPerGeometryReplay is the oracle for
// the one-pass capacity axis: over random reference streams (reads and
// writes, scalar and batched), StackProfile.Misses(a) must equal the
// miss count of replaying the same stream through a standalone a-way
// Cache with all ways enabled, for every associativity 1..MaxWays —
// the per-geometry replay it replaces in corpus-miss.
func TestPropertyStackProfileMatchesPerGeometryReplay(t *testing.T) {
	geoms := []Config{
		{Sets: 32, Ways: 8, LineBytes: 32}, // corpus-miss geometry
		{Sets: 4, Ways: 2, LineBytes: 16},
		{Sets: 8, Ways: 1, LineBytes: 32},
		{Sets: 1, Ways: 64, LineBytes: 32},
	}
	for _, cfg := range geoms {
		p := MustNewStackProfile(cfg)
		if p.MaxWays() != cfg.Ways {
			t.Fatalf("cfg %+v: MaxWays = %d", cfg, p.MaxWays())
		}
		caches := make([]*Cache, cfg.Ways)
		misses := make([]uint64, cfg.Ways)
		for w := 1; w <= cfg.Ways; w++ {
			caches[w-1] = MustNew(Config{Sets: cfg.Sets, Ways: w, LineBytes: cfg.LineBytes})
		}
		rng := rand.New(rand.NewSource(int64(cfg.Sets*1000 + cfg.Ways)))
		addrSpace := uint32(cfg.SizeBytes() * 4)
		var cursor uint32
		randAddr := func() uint32 {
			if rng.Intn(2) == 0 {
				cursor = (cursor + 4) % addrSpace
				return cursor
			}
			return rng.Uint32() % addrSpace
		}
		feed := func(addr uint32, write bool) {
			for i, c := range caches {
				if !c.Access(addr, write).Hit {
					misses[i]++
				}
			}
		}
		refs := uint64(0)
		ops := make([]Op, 256)
		for step := 0; step < 400; step++ {
			if rng.Intn(2) == 0 {
				addr, write := randAddr(), rng.Intn(4) == 0
				p.Access(addr)
				feed(addr, write)
				refs++
			} else {
				n := 1 + rng.Intn(len(ops))
				for i := 0; i < n; i++ {
					ops[i] = Op{Addr: randAddr(), Write: rng.Intn(4) == 0}
				}
				p.AccessBatch(ops[:n])
				for i := 0; i < n; i++ {
					feed(ops[i].Addr, ops[i].Write)
				}
				refs += uint64(n)
			}
		}
		if p.Refs() != refs {
			t.Fatalf("cfg %+v: Refs = %d, fed %d", cfg, p.Refs(), refs)
		}
		hist := p.Hist()
		if len(hist) != cfg.Ways+1 {
			t.Fatalf("cfg %+v: histogram has %d buckets, want %d", cfg, len(hist), cfg.Ways+1)
		}
		sum := uint64(0)
		for _, h := range hist {
			sum += h
		}
		if sum != refs {
			t.Fatalf("cfg %+v: histogram sums to %d, want %d refs", cfg, sum, refs)
		}
		for w := 1; w <= cfg.Ways; w++ {
			if got := p.Misses(w); got != misses[w-1] {
				t.Fatalf("cfg %+v ways %d: profile misses %d, replay misses %d",
					cfg, w, got, misses[w-1])
			}
		}
	}
}

func TestStackProfileErrors(t *testing.T) {
	if _, err := NewStackProfile(Config{Sets: 32, Ways: 8, LineBytes: 24}); err == nil {
		t.Fatal("invalid config accepted")
	}
	p := MustNewStackProfile(Config{Sets: 4, Ways: 2, LineBytes: 32})
	for _, w := range []int{0, 3, -1} {
		w := w
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Misses(%d) outside profiled range accepted", w)
				}
			}()
			p.Misses(w)
		}()
	}
}

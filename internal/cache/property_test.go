package cache

import (
	"math/rand"
	"testing"
)

// naiveCache is an array-of-structs reference model with the simulator's
// exact contract — the pre-SoA implementation, kept as the oracle for
// the packed-mask layout: per-line valid/dirty/tag/lru fields and an
// O(ways) scan everywhere, no masks. Every optimisation the SoA engine
// makes (packed bitmasks, the O(1) enabled guard, batched loops) must be
// invisible against this model under arbitrary interleavings of
// accesses, way gating and flushes.
type naiveLine struct {
	valid bool
	dirty bool
	tag   uint32
	lru   uint64
}

type naiveCache struct {
	cfg     Config
	lines   []naiveLine
	enabled []bool
	tick    uint64
	offBits uint
	idxBits uint
}

func newNaive(cfg Config) *naiveCache {
	offBits := uint(0)
	for 1<<offBits < cfg.LineBytes {
		offBits++
	}
	idxBits := uint(0)
	for 1<<idxBits < cfg.Sets {
		idxBits++
	}
	n := &naiveCache{
		cfg:     cfg,
		lines:   make([]naiveLine, cfg.Sets*cfg.Ways),
		enabled: make([]bool, cfg.Ways),
		offBits: offBits,
		idxBits: idxBits,
	}
	for i := range n.enabled {
		n.enabled[i] = true
	}
	return n
}

func (n *naiveCache) access(addr uint32, write bool) Result {
	set := int((addr >> n.offBits) & uint32(n.cfg.Sets-1))
	tag := addr >> (n.offBits + n.idxBits)
	base := set * n.cfg.Ways
	n.tick++
	for w := 0; w < n.cfg.Ways; w++ {
		ln := &n.lines[base+w]
		if n.enabled[w] && ln.valid && ln.tag == tag {
			ln.lru = n.tick
			if write {
				ln.dirty = true
			}
			return Result{Hit: true, Way: w}
		}
	}
	victim := -1
	oldest := ^uint64(0)
	for w := 0; w < n.cfg.Ways; w++ {
		if !n.enabled[w] {
			continue
		}
		ln := &n.lines[base+w]
		if !ln.valid {
			victim = w
			break
		}
		if ln.lru < oldest {
			oldest = ln.lru
			victim = w
		}
	}
	ln := &n.lines[base+victim]
	res := Result{Way: victim, Writeback: ln.valid && ln.dirty}
	if res.Writeback {
		res.Victim = ln.tag<<(n.offBits+n.idxBits) | uint32(set)<<n.offBits
	}
	*ln = naiveLine{valid: true, tag: tag, lru: n.tick, dirty: write}
	return res
}

func (n *naiveCache) setWayEnabled(way int, on bool) {
	if !on {
		for set := 0; set < n.cfg.Sets; set++ {
			n.lines[set*n.cfg.Ways+way] = naiveLine{}
		}
	}
	n.enabled[way] = on
}

func (n *naiveCache) enabledWays() int {
	c := 0
	for _, e := range n.enabled {
		if e {
			c++
		}
	}
	return c
}

func (n *naiveCache) flush() int {
	dirty := 0
	for i := range n.lines {
		if n.lines[i].valid && n.lines[i].dirty {
			dirty++
		}
		n.lines[i] = naiveLine{}
	}
	return dirty
}

func (n *naiveCache) contains(addr uint32) bool {
	set := int((addr >> n.offBits) & uint32(n.cfg.Sets-1))
	tag := addr >> (n.offBits + n.idxBits)
	for w := 0; w < n.cfg.Ways; w++ {
		ln := n.lines[set*n.cfg.Ways+w]
		if n.enabled[w] && ln.valid && ln.tag == tag {
			return true
		}
	}
	return false
}

// TestPropertyInterleavedOpsMatchNaiveModel differentially proves mask
// maintenance under mode switches: a random interleaving of scalar
// accesses, batched slabs, way gating, flushes and state queries must
// behave identically on the SoA engine and the naive per-line model —
// not just under steady-state replay, where a stale mask bit could
// hide.
func TestPropertyInterleavedOpsMatchNaiveModel(t *testing.T) {
	configs := []Config{
		{Sets: 32, Ways: 8, LineBytes: 32}, // the paper's L1
		{Sets: 4, Ways: 2, LineBytes: 16},  // tiny: constant conflicts
		{Sets: 8, Ways: 1, LineBytes: 32},  // direct-mapped: no victim scan
		{Sets: 1, Ways: 64, LineBytes: 32}, // full mask word, one set
	}
	for _, cfg := range configs {
		c := MustNew(cfg)
		ref := newNaive(cfg)
		rng := rand.New(rand.NewSource(int64(cfg.Sets*100 + cfg.Ways)))
		// Address pool small enough for heavy reuse (hits and conflicts),
		// with a sequential cursor mixed in so consecutive accesses often
		// share a line, not only cold jumps.
		addrSpace := uint32(cfg.SizeBytes() * 4)
		var cursor uint32
		randAddr := func() uint32 {
			if rng.Intn(2) == 0 {
				cursor = (cursor + 4) % addrSpace
				return cursor
			}
			return rng.Uint32() % addrSpace
		}
		ops := make([]Op, 512)
		res := make([]Result, 512)
		for step := 0; step < 30_000; step++ {
			switch k := rng.Intn(100); {
			case k < 60: // scalar access
				addr, write := randAddr(), rng.Intn(4) == 0
				got := c.Access(addr, write)
				want := ref.access(addr, write)
				if got != want {
					t.Fatalf("cfg %+v step %d: Access(%#x, %v) = %+v, naive model %+v",
						cfg, step, addr, write, got, want)
				}
			case k < 85: // batched slab of 1..512 ops
				n := 1 + rng.Intn(len(ops))
				for i := 0; i < n; i++ {
					ops[i] = Op{Addr: randAddr(), Write: rng.Intn(4) == 0}
				}
				c.AccessBatch(ops[:n], res[:n])
				for i := 0; i < n; i++ {
					want := ref.access(ops[i].Addr, ops[i].Write)
					if res[i] != want {
						t.Fatalf("cfg %+v step %d: batch op %d (%+v) = %+v, naive model %+v",
							cfg, step, i, ops[i], res[i], want)
					}
				}
			case k < 95: // gate a way on or off (never the last one off)
				way := rng.Intn(cfg.Ways)
				on := rng.Intn(2) == 0
				if !on && c.EnabledWays() == 1 && c.WayEnabled(way) {
					on = true
				}
				c.SetWayEnabled(way, on)
				ref.setWayEnabled(way, on)
				if c.EnabledWays() != ref.enabledWays() {
					t.Fatalf("cfg %+v step %d: EnabledWays %d, naive model %d",
						cfg, step, c.EnabledWays(), ref.enabledWays())
				}
			default: // flush (mode-switch write-back)
				got, want := c.Flush(), ref.flush()
				if got != want {
					t.Fatalf("cfg %+v step %d: Flush wrote back %d lines, naive model %d",
						cfg, step, got, want)
				}
			}
			if step%97 == 0 { // periodic read-only state probe
				addr := randAddr()
				if c.Contains(addr) != ref.contains(addr) {
					t.Fatalf("cfg %+v step %d: Contains(%#x) diverged", cfg, step, addr)
				}
			}
		}
		// Final state sweep: every line-aligned address agrees.
		for a := uint32(0); a < addrSpace; a += uint32(cfg.LineBytes) {
			if c.Contains(a) != ref.contains(a) {
				t.Fatalf("cfg %+v: final state diverged at %#x", cfg, a)
			}
		}
	}
}

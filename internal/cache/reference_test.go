package cache

import (
	"math/rand"
	"testing"
)

// refCache is a deliberately naive, obviously-correct LRU model used to
// differentially test the optimised simulator: each set is an ordered
// slice of {tag, dirty}, MRU first.
type refCache struct {
	cfg  Config
	sets [][]refLine
}

type refLine struct {
	tag   uint32
	dirty bool
}

func newRef(cfg Config) *refCache {
	return &refCache{cfg: cfg, sets: make([][]refLine, cfg.Sets)}
}

func (r *refCache) split(addr uint32) (int, uint32) {
	off := uint(0)
	for 1<<off < r.cfg.LineBytes {
		off++
	}
	idx := uint(0)
	for 1<<idx < r.cfg.Sets {
		idx++
	}
	return int((addr >> off) & uint32(r.cfg.Sets-1)), addr >> (off + idx)
}

func (r *refCache) access(addr uint32, write bool, ways int) Result {
	set, tag := r.split(addr)
	lines := r.sets[set]
	for i, ln := range lines {
		if ln.tag == tag {
			// Move to MRU.
			copy(lines[1:i+1], lines[:i])
			lines[0] = ln
			if write {
				lines[0].dirty = true
			}
			return Result{Hit: true}
		}
	}
	res := Result{}
	if len(lines) == ways {
		victim := lines[len(lines)-1]
		res.Evicted = true
		res.Writeback = victim.dirty
		lines = lines[:len(lines)-1]
	}
	r.sets[set] = append([]refLine{{tag: tag, dirty: write}}, lines...)
	return res
}

func TestDifferentialAgainstReferenceModel(t *testing.T) {
	configs := []Config{
		{Sets: 32, Ways: 8, LineBytes: 32}, // the paper's L1
		{Sets: 64, Ways: 1, LineBytes: 32}, // direct-mapped
		{Sets: 1, Ways: 16, LineBytes: 64}, // fully associative
		{Sets: 4, Ways: 2, LineBytes: 16},
	}
	for _, cfg := range configs {
		c := MustNew(cfg)
		ref := newRef(cfg)
		rng := rand.New(rand.NewSource(int64(cfg.Sets*1000 + cfg.Ways)))
		// Mix of hot lines (reuse) and random addresses (conflict).
		hot := make([]uint32, 24)
		for i := range hot {
			hot[i] = rng.Uint32()
		}
		for step := 0; step < 200000; step++ {
			var addr uint32
			if rng.Intn(2) == 0 {
				addr = hot[rng.Intn(len(hot))]
			} else {
				addr = rng.Uint32()
			}
			write := rng.Intn(4) == 0
			got := c.Access(addr, write)
			want := ref.access(addr, write, cfg.Ways)
			if got.Hit != want.Hit || got.Evicted != want.Evicted || got.Writeback != want.Writeback {
				t.Fatalf("cfg %+v step %d addr %#x write=%v: sim %+v != ref %+v",
					cfg, step, addr, write, got, want)
			}
		}
	}
}

func TestFullyAssociativeNoConflicts(t *testing.T) {
	// 16 distinct lines in a 16-line FA cache never conflict.
	c := MustNew(Config{Sets: 1, Ways: 16, LineBytes: 64})
	for pass := 0; pass < 3; pass++ {
		misses := 0
		for i := 0; i < 16; i++ {
			if !c.Access(uint32(i)*64, false).Hit {
				misses++
			}
		}
		if pass == 0 && misses != 16 {
			t.Errorf("cold pass misses %d", misses)
		}
		if pass > 0 && misses != 0 {
			t.Errorf("warm pass %d misses %d", pass, misses)
		}
	}
}

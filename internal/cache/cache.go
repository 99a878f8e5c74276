// Package cache implements the set-associative cache simulator underlying
// both L1 caches of the evaluation platform: true-LRU replacement,
// write-back write-allocate policy, and per-way enable/disable — the
// mechanism the hybrid architecture uses to gate the HP ways off at ULE
// mode (gated-Vdd, Powell et al.).
//
// The simulator is laid out structure-of-arrays: tags and LRU ticks live
// in parallel slabs (sets × ways, row-major), while the valid, dirty and
// enabled flags are packed one bit per way into per-set mask words. A
// set probe is therefore a short contiguous tag scan gated by a single
// mask word, the all-ways-off guard is one compare against the enabled
// mask (maintained by SetWayEnabled, never re-derived per access), and
// Flush/SetWayEnabled clear whole sets with bulk mask operations. The
// layout caps associativity at 64 ways — far beyond the paper's 8 — so
// every way state of a set fits one machine word.
package cache

import (
	"fmt"
	"math/bits"
)

// Config is the geometry of one cache.
type Config struct {
	Sets      int // number of sets (power of two)
	Ways      int // associativity (at most 64 — way flags pack into one word)
	LineBytes int // line size in bytes (power of two)
}

// SizeBytes returns the total data capacity.
func (c Config) SizeBytes() int { return c.Sets * c.Ways * c.LineBytes }

// Validate reports whether the geometry is usable.
func (c Config) Validate() error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("cache: sets %d not a positive power of two", c.Sets)
	}
	if c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache: line size %d not a positive power of two", c.LineBytes)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("cache: ways %d must be positive", c.Ways)
	}
	if c.Ways > 64 {
		return fmt.Errorf("cache: ways %d exceeds the 64-way packed-mask limit", c.Ways)
	}
	return nil
}

// Result describes one access. Its fields are ordered so that a Result
// packs into 16 bytes.
type Result struct {
	Way       int    // way hit, or way filled on a miss
	Victim    uint32 // line address of the displaced line, valid iff Writeback
	Hit       bool
	Writeback bool // a dirty line was displaced (memory write traffic)
}

// Cache is a set-associative cache with per-way gating. A Cache holds
// per-run mutable state and is not safe for concurrent use; concurrent
// simulations each build their own (core.System does this per run).
type Cache struct {
	cfg  Config
	ways int

	// Parallel slabs, sets × ways row-major: the tag and last-touch
	// tick of every line.
	tags []uint32
	lru  []uint64

	// Per-set packed way masks: bit w of valid[s]/dirty[s] is the
	// valid/dirty flag of way w in set s. dirty is always a subset of
	// valid. Lines in invalid ways may hold stale tags and ticks — both
	// are only ever read under the valid mask.
	valid []uint64
	dirty []uint64

	// enabled is the powered-way mask, maintained by SetWayEnabled.
	// enabled == 0 is the all-ways-gated state every access path guards
	// against with a single compare.
	enabled uint64

	tick    uint64
	offBits uint
	idxBits uint
}

// New builds a cache with all ways enabled.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Cache{
		cfg:     cfg,
		ways:    cfg.Ways,
		tags:    make([]uint32, cfg.Sets*cfg.Ways),
		lru:     make([]uint64, cfg.Sets*cfg.Ways),
		valid:   make([]uint64, cfg.Sets),
		dirty:   make([]uint64, cfg.Sets),
		enabled: ^uint64(0) >> (64 - uint(cfg.Ways)),
		offBits: uint(bits.TrailingZeros32(uint32(cfg.LineBytes))),
		idxBits: uint(bits.TrailingZeros32(uint32(cfg.Sets))),
	}, nil
}

// MustNew is New, panicking on error.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// SetWayEnabled gates one way on or off. Disabling a way invalidates its
// contents (gated-Vdd loses state) — one mask-bit clear per set, no line
// walk; the caller is responsible for any write-back policy at mode
// switches (the architecture flushes before switching).
func (c *Cache) SetWayEnabled(way int, on bool) {
	if way < 0 || way >= c.ways {
		panic(fmt.Sprintf("cache: way %d out of range", way))
	}
	bit := uint64(1) << uint(way)
	if on {
		c.enabled |= bit
		return
	}
	for set := range c.valid {
		c.valid[set] &^= bit
		c.dirty[set] &^= bit
	}
	c.enabled &^= bit
}

// WayEnabled reports whether a way is powered.
func (c *Cache) WayEnabled(way int) bool { return c.enabled&(uint64(1)<<uint(way)) != 0 }

// EnabledWays returns the number of powered ways (one popcount of the
// enabled mask).
func (c *Cache) EnabledWays() int { return bits.OnesCount64(c.enabled) }

// Access performs a read (write=false) or write (write=true) with
// write-allocate semantics: misses always fill the line into the LRU
// enabled way. It is a one-op AccessBatch.
func (c *Cache) Access(addr uint32, write bool) Result {
	var r [1]Result
	c.AccessBatch([]Op{{Addr: addr, Write: write}}, r[:])
	return r[0]
}

// probe performs one access once AccessBatch has split the address,
// bumped the tick and established that at least one way is enabled
// (SetWayEnabled cannot run mid-batch — a Cache is single-goroutine).
// It writes the outcome into *r, every field of it, so AccessBatch
// hands it its slot of the result slice and no Result is copied
// through the stack.
func (c *Cache) probe(set int, tag uint32, write bool, r *Result) {
	base := set * c.ways

	// Probe: one mask word selects the live ways; the tag scan walks
	// only their contiguous uint32 row entries (cost tracks the number
	// of powered, valid ways, not the nominal associativity).
	tags := c.tags[base : base+c.ways]
	for live := c.valid[set] & c.enabled; live != 0; live &= live - 1 {
		w := bits.TrailingZeros64(live)
		if tags[w] == tag {
			c.lru[base+w] = c.tick
			if write {
				c.dirty[set] |= uint64(1) << uint(w)
			}
			*r = Result{Hit: true, Way: w}
			return
		}
	}

	// Miss: fill the lowest invalid enabled way if one exists, else the
	// least-recently-used enabled way.
	var victim int
	if avail := c.enabled &^ c.valid[set]; avail != 0 {
		victim = bits.TrailingZeros64(avail)
	} else {
		lru := c.lru[base : base+c.ways]
		oldest := ^uint64(0)
		for en := c.enabled; en != 0; en &= en - 1 {
			w := bits.TrailingZeros64(en)
			if lru[w] < oldest {
				oldest, victim = lru[w], w
			}
		}
	}
	bit := uint64(1) << uint(victim)
	*r = Result{Way: victim}
	if c.valid[set]&c.dirty[set]&bit != 0 {
		// Reconstruct the dirty line's address from its tag before the
		// fill overwrites it — the next level absorbs its write-back.
		r.Writeback = true
		r.Victim = tags[victim]<<(c.offBits+c.idxBits) | uint32(set)<<c.offBits
	}
	c.valid[set] |= bit
	if write {
		c.dirty[set] |= bit
	} else {
		c.dirty[set] &^= bit
	}
	tags[victim] = tag
	c.lru[base+victim] = c.tick
}

// Op is one access of a batch, or a run of 1+Rep accesses to Addr's
// line. Rep lets a caller that knows consecutive accesses share a line
// (a core fetching straight-line code) hand them over as one op: the
// repeats all hit the line the first access left most recently used,
// so AccessBatch performs the run as that one access and advances the
// LRU clock by its length. Every state change — contents, dirty bits,
// LRU stamps — is then exactly that of the 1+Rep accesses issued one by
// one, and the op's Result is the first access's; the repeats' own
// results are hits on the same way. Rep fits in the struct's padding,
// so an Op stays 8 bytes.
type Op struct {
	Addr  uint32
	Write bool
	Rep   uint16 // further accesses to Addr's line, right behind this one
}

// AccessBatch performs the ops in order, writing the i-th op's outcome
// into res[i]: each op is 1+Rep accesses to its line, whose result is
// the first access's. The all-ways-off guard is hoisted to one compare
// per batch and the geometry lives in registers across the chunk. This
// is the loop the replay banks and Hierarchy ride on.
func (c *Cache) AccessBatch(ops []Op, res []Result) {
	if len(res) < len(ops) {
		panic(fmt.Sprintf("cache: AccessBatch result buffer %d too small for %d ops", len(res), len(ops)))
	}
	if len(ops) == 0 {
		return
	}
	if c.enabled == 0 {
		panic("cache: access with all ways gated off")
	}
	res = res[:len(ops)]
	offBits, idxBits := c.offBits, c.offBits+c.idxBits
	setMask := uint32(c.cfg.Sets - 1)
	for i := range ops {
		addr := ops[i].Addr
		c.tick += 1 + uint64(ops[i].Rep)
		c.probe(int((addr>>offBits)&setMask), addr>>idxBits, ops[i].Write, &res[i])
	}
}

// Contains reports whether the address currently hits (without touching
// LRU state) — a test and debugging helper.
func (c *Cache) Contains(addr uint32) bool {
	set := int((addr >> c.offBits) & uint32(c.cfg.Sets-1))
	tag := addr >> (c.offBits + c.idxBits)
	tags := c.tags[set*c.ways : set*c.ways+c.ways]
	for live := c.valid[set] & c.enabled; live != 0; live &= live - 1 {
		if tags[bits.TrailingZeros64(live)] == tag {
			return true
		}
	}
	return false
}

// Flush invalidates the whole cache and returns the number of dirty
// lines that would be written back (the mode-switch cost). One popcount
// and two mask clears per set — no line walk.
func (c *Cache) Flush() int {
	dirty := 0
	for set := range c.valid {
		dirty += bits.OnesCount64(c.valid[set] & c.dirty[set])
		c.valid[set] = 0
		c.dirty[set] = 0
	}
	return dirty
}

// DrainDirty invalidates the whole cache like Flush, but additionally
// reports the line address of every dirty line through emit, in
// deterministic order (sets ascending, ways ascending within a set). It
// returns the number of dirty lines: the functional cache's reference
// test checks memory against it. Callers that only need the count
// should use Flush, which never walks lines.
func (c *Cache) DrainDirty(emit func(addr uint32)) int {
	dirty := 0
	for set := range c.valid {
		for live := c.valid[set] & c.dirty[set]; live != 0; live &= live - 1 {
			w := bits.TrailingZeros64(live)
			emit(c.tags[set*c.ways+w]<<(c.offBits+c.idxBits) | uint32(set)<<c.offBits)
			dirty++
		}
		c.valid[set] = 0
		c.dirty[set] = 0
	}
	return dirty
}

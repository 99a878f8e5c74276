package cache

import (
	"fmt"
	"math/bits"
)

// StackProfile is a Mattson-style single-pass LRU profiler: one replay
// of a reference stream yields the hit/miss counts of *every*
// set-associative LRU cache with the profile's set count and line size
// and associativity 1..MaxWays. It is the one-pass engine behind the
// corpus-miss capacity axis, collapsing the per-associativity replays
// (1, 2, 4, 8 ways over the same arena) into one pass plus an
// O(histogram) readout per geometry.
//
// The profiler keeps, per set, the distinct line tags in MRU-first
// order. Each access records the referenced tag's depth in that stack —
// its LRU stack distance — then moves it to the front. By the LRU
// inclusion property, a reference with stack distance d hits in an
// a-way set-associative LRU cache exactly when d < a: the a most
// recently used lines of a set are the same regardless of
// associativity, so deeper caches strictly contain shallower ones.
// Cold references (tag not in the stack) miss at every associativity.
// Cache's fill policy — lowest invalid way first, then LRU victim —
// preserves exactly this behaviour, which is what the property test
// pins down: Misses(a) is bit-identical to replaying the stream
// through a standalone a-way Cache with all ways enabled.
//
// Reads and writes are deliberately not distinguished: with
// write-allocate and no way gating, the hit/miss outcome of an access
// does not depend on the write bit, only dirty-line bookkeeping does —
// and capacity profiling needs only hits and misses.
//
// A StackProfile holds per-run mutable state and is not safe for
// concurrent use.
type StackProfile struct {
	// stacks is sets × MaxWays tag slots, row-major, each row MRU-first.
	// Only the first depth[set] slots of a row are live.
	stacks []uint32
	depth  []uint8
	// hist[d] counts references with stack distance d; hist[MaxWays]
	// counts everything deeper — cold references and distances beyond
	// the profiled range, which miss at every associativity ≤ MaxWays.
	hist    []uint64
	refs    uint64
	offBits uint32
	idxBits uint32
	sets    uint32
	ways    uint32
}

// NewStackProfile builds a profiler for cfg's set count and line size,
// profiling associativities 1..cfg.Ways. The configuration is validated
// exactly as a Cache's would be.
func NewStackProfile(cfg Config) (*StackProfile, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &StackProfile{
		stacks:  make([]uint32, cfg.Sets*cfg.Ways),
		depth:   make([]uint8, cfg.Sets),
		hist:    make([]uint64, cfg.Ways+1),
		offBits: uint32(bits.TrailingZeros32(uint32(cfg.LineBytes))),
		idxBits: uint32(bits.TrailingZeros32(uint32(cfg.Sets))),
		sets:    uint32(cfg.Sets),
		ways:    uint32(cfg.Ways),
	}
	return p, nil
}

// MustNewStackProfile is NewStackProfile, panicking on invalid
// configuration.
func MustNewStackProfile(cfg Config) *StackProfile {
	p, err := NewStackProfile(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// MaxWays returns the largest associativity the profile covers.
func (p *StackProfile) MaxWays() int { return int(p.ways) }

// Access records one reference.
func (p *StackProfile) Access(addr uint32) {
	line := addr >> p.offBits
	set := line & (p.sets - 1)
	tag := line >> p.idxBits
	row := p.stacks[uint64(set)*uint64(p.ways) : uint64(set+1)*uint64(p.ways)]
	d := int(p.depth[set])

	// Find the tag's stack distance and shift everything above it down
	// one slot in the same scan: carry holds the tag displaced from the
	// slot above (starting with the accessed tag itself going into the
	// MRU slot), and the scan stops where the accessed tag was found —
	// that slot absorbs the carry, completing the MRU move.
	dist := int(p.ways) // sentinel: cold / beyond profiled range
	carry := tag
	for i := 0; i < d; i++ {
		t := row[i]
		row[i] = carry
		if t == tag {
			dist = i
			break
		}
		carry = t
	}
	if dist == int(p.ways) {
		// Cold reference: the whole live prefix shifted down; the carry
		// (the former LRU tag) either grows the stack or falls off the
		// profiled range.
		if d < int(p.ways) {
			row[d] = carry
			p.depth[set] = uint8(d + 1)
		}
	}
	p.hist[dist]++
	p.refs++
}

// AccessBatch records ops in order. Only the addresses matter; the
// write bits are ignored (see the type comment).
func (p *StackProfile) AccessBatch(ops []Op) {
	for i := range ops {
		p.Access(ops[i].Addr)
	}
}

// Refs returns the total number of references profiled.
func (p *StackProfile) Refs() uint64 { return p.refs }

// Hist returns a copy of the stack-distance histogram: Hist()[d] is the
// number of references at distance d, and Hist()[MaxWays()] counts cold
// and deeper-than-profiled references.
func (p *StackProfile) Hist() []uint64 {
	h := make([]uint64, len(p.hist))
	copy(h, p.hist)
	return h
}

// Misses returns the miss count of a ways-associative LRU cache with
// the profile's sets and line size: every reference whose stack
// distance is ≥ ways. ways must be in 1..MaxWays.
func (p *StackProfile) Misses(ways int) uint64 {
	if ways < 1 || ways > int(p.ways) {
		panic(fmt.Sprintf("cache: StackProfile.Misses(%d) outside profiled range 1..%d", ways, p.ways))
	}
	hits := uint64(0)
	for d := 0; d < ways; d++ {
		hits += p.hist[d]
	}
	return p.refs - hits
}

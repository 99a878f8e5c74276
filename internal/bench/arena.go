package bench

import (
	"edcache/internal/sim"
	"edcache/internal/trace"
)

// ArenaCache memoizes materialized workload slabs so a sweep generates
// each workload exactly once per run and replays the shared slab from
// every grid point. Entries are keyed on the workload value — for
// registered corpus entries that is (workload name, instruction
// count), since names are unique and every other field is fixed by the
// registration — so the same workload at two trace lengths gets two
// slabs while every (scenario, mode, design) grid point at one length
// shares one.
//
// The cache is safe for concurrent Get calls: the first caller for a
// key runs the generator once (distinct workloads generate
// concurrently), everyone else replays the shared immutable arena.
// Generation is deterministic per workload, so a cached slab is
// indistinguishable from a fresh Stream — the experiment engine's
// workers-invariant determinism contract holds with any worker count.
//
// Memory: a slab is one exact allocation of 16 bytes per instruction
// (no transient 2x growth), retained for the cache's lifetime — the
// full 18-workload corpus at the paper's 300 k instructions is ~86 MB.
// The generator fills the slab in place, so building it allocates
// nothing beyond the slab and the generator's own state: no window
// buffer and no window copy.
type ArenaCache struct {
	shared *sim.Shared[Workload, *trace.Arena]
}

// NewArenaCache returns an empty cache.
func NewArenaCache() *ArenaCache {
	return &ArenaCache{shared: sim.NewShared(func(w Workload) (*trace.Arena, error) {
		return trace.NewArena(w.Stream(), w.Instructions), nil
	})}
}

// Get returns the workload's shared slab, generating it on first use.
func (c *ArenaCache) Get(w Workload) *trace.Arena {
	a, _ := c.shared.Get(w) // the generator build cannot fail
	return a
}

// Len reports how many slabs the cache holds. Tests use it to pin how
// many workloads a run materialised.
func (c *ArenaCache) Len() int { return c.shared.Len() }

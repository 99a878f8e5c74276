package core

import (
	"fmt"
	"slices"
	"sync"

	"edcache/internal/bench"
	"edcache/internal/cache"
	"edcache/internal/cpu"
	"edcache/internal/sim"
	"edcache/internal/trace"
	"edcache/internal/yield"
)

// Single-pass replay: a group of (System, Mode) evaluation points that
// share one instruction stream is replayed by one cpu.RunMulti pass. The
// stream is walked and classified once; the cache accesses and their
// event counts fan out per simulator slot, and only timing and pricing
// per member. Every single-stream evaluation in the repo is such a
// group — System.Run is the one-member case — so a Report never
// depends on which other members shared its pass.
//
// Slots are keyed from L1 configuration (planGroup, slotKey), so a
// simulator is built only for a new slot. Baseline and proposed at the
// same mode differ only in cell sizing, coding and latency, none of
// which touch cache *state*, so the paper's 8-member scenario × mode ×
// design group builds only 2 L1s per side. Nor does a second level
// split a slot: an L2 is inclusive of nothing, so the L1 never depends
// on it. Each side's slot is one cache.Hierarchy — its L1 in front of
// the slot's tiers, one L2 per distinct L2 geometry among its members,
// shared by both sides — so the 6-member hier group (2 L2 geometries ×
// 3 protections) replays 1 L1 per side over 2 L2s. Members of one slot
// share one outcome row, the slot's first member's (cpu.MultiPort's
// Row), and the cpu lane counts each row's misses once.
//
// Each side counts each slot's L1 events once, per way and per phase
// id, and each tier's L2 traffic once, right after the slot's
// AccessBatch. Which ways are HP and which ULE is a fact of a member's
// design, not of cache state, so it is decided only when a member's
// Report is priced (System.breakdown): the 8-member group keeps 2 L1
// tallies per side, and members that split their ways differently
// still share their slot's.

// GroupMember is one evaluation point of a replay group.
type GroupMember struct {
	Sys  *System
	Mode Mode
}

// slotKey identifies members whose L1s evolve identically under any
// access sequence: the same L1 geometry and initially-enabled ways.
// EDC latency, cell sizing, energy models and the second level live
// outside the L1 state.
type slotKey struct {
	l1     cache.Config
	l1Ways uint64 // enabled-way mask
}

// groupPlan is a replay group's slot and tier assignment, and owns
// each slot's L2s. It does not depend on the side: the IL1 and DL1
// banks build one L1 per slot, and both front the slot's tiers.
type groupPlan struct {
	slot  []int            // member k's slot
	tier  []int            // member k's L2 among its slot's tiers, -1 for none
	owner []int            // slot s's outcome row: its first member
	keys  []slotKey        // slot s's L1 state
	tiers [][]*cache.Cache // slot s's L2s, one per distinct L2 geometry among its members
}

// planGroup assigns members to slots by slotKey and to their slot's
// tier of their L2 geometry (an L2 powers all its ways in either mode),
// building each tier's L2. A slot's first member owns its outcome row.
func planGroup(members []GroupMember) *groupPlan {
	n := len(members)
	g := &groupPlan{slot: make([]int, n), tier: make([]int, n)}
	for k, gm := range members {
		key := gm.Sys.stateKey(gm.Mode)
		s := slices.Index(g.keys, key)
		if s < 0 {
			s = len(g.keys)
			g.keys = append(g.keys, key)
			g.tiers = append(g.tiers, nil)
			g.owner = append(g.owner, k)
		}
		t := -1
		if l2 := gm.Sys.cfg.L2; l2 != nil {
			geom := cache.Config{Sets: l2.Sets, Ways: l2.Ways, LineBytes: l2.LineBytes}
			t = slices.IndexFunc(g.tiers[s], func(c *cache.Cache) bool { return c.Config() == geom })
			if t < 0 {
				t = len(g.tiers[s])
				g.tiers[s] = append(g.tiers[s], cache.MustNew(geom))
			}
		}
		g.slot[k], g.tier[k] = s, t
	}
	return g
}

// runScratch is one bank port's outcome scratch: one Result row, sized
// to the largest chunk seen, reused by every slot in turn. Scratch is
// pooled across runs (and therefore across sweep grid points — a
// sweep's steady state reuses one scratch set per pool slot instead of
// reallocating per replay).
type runScratch struct {
	res []cache.Result
}

var scratchPool = sync.Pool{New: func() any { return &runScratch{} }}

// multiPort is core's cpu-facing port: one side (IL1 or DL1) of a
// replay group, as a cpu.MultiPort — K logical ports (one timing view
// per member) over the group plan's simulator slots, and the side's
// event counts: one L1 tally per slot and one L2 tally per slot and
// tier.
type multiPort struct {
	plan  *groupPlan
	ports []*port            // logical member ports
	sims  []*cache.Hierarchy // one per plan slot: its L1 in front of its tiers
	l1    []tally[portCounters]
	l2    [][]tally[l2Counters] // [slot][tier]
	scr   *runScratch
}

// newMultiPort builds one side's bank port over plan: one L1 per slot,
// in front of the slot's tiers.
func newMultiPort(members []GroupMember, plan *groupPlan, dside bool) *multiPort {
	mp := &multiPort{
		plan:  plan,
		ports: make([]*port, len(members)),
		sims:  make([]*cache.Hierarchy, len(plan.keys)),
		l1:    make([]tally[portCounters], len(plan.keys)),
		l2:    make([][]tally[l2Counters], len(plan.keys)),
		scr:   scratchPool.Get().(*runScratch),
	}
	for s, key := range plan.keys {
		mp.sims[s] = cache.MustNewHierarchy(newSim(key.l1, key.l1Ways), plan.tiers[s]...)
		mp.l2[s] = make([]tally[l2Counters], len(plan.tiers[s]))
	}
	for k, gm := range members {
		p := &port{hier: mp.sims[plan.slot[k]], tier: plan.tier[k]}
		if dside {
			p.extra = gm.Sys.ExtraHitLatency(gm.Mode)
		}
		if p.tier >= 0 {
			p.l2lat = gm.Sys.cfg.L2.Latency
		}
		mp.ports[k] = p
	}
	return mp
}

// release returns the pooled scratch; the port must not be used after.
func (mp *multiPort) release() {
	scratchPool.Put(mp.scr)
	mp.scr = nil
}

// Members implements cpu.MultiPort.
func (mp *multiPort) Members() int { return len(mp.ports) }

// Member implements cpu.MultiPort: member k's logical port carries its
// EDC latency and, behind a second level, its tiered timing.
func (mp *multiPort) Member(k int) cpu.Port { return mp.ports[k] }

// Row implements cpu.MultiPort: members of one slot see one outcome
// sequence, so their row is the slot's owner's.
func (mp *multiPort) Row(k int) int { return mp.plan.owner[mp.plan.slot[k]] }

// RunLineBytes implements cpu.RunPort: every slot's L1 is a
// cache.Cache, which performs a fetch run as one access, so the bank
// takes runs cut at the smallest L1 line among its slots.
func (mp *multiPort) RunLineBytes() int {
	line := mp.plan.keys[0].l1.LineBytes
	for _, key := range mp.plan.keys {
		line = min(line, key.l1.LineBytes)
	}
	return line
}

// AccessBatch implements cpu.MultiPort: per simulator slot, one pass
// over the lane's op list (one L1 pass, then one pass per tier over the
// L1's miss traffic), whose L1 outcomes fold into the slot's tally and
// row and whose L2 traffic folds into each tier's tally, all at the
// batch's phase id. An op may stand for a fetch run (cpu.RunPort): the
// L1 performs it as one access, and the tally counts its length.
func (mp *multiPort) AccessBatch(phase uint8, ops []cpu.PortOp, miss [][]bool) {
	n := len(ops)
	mp.scr.res = slices.Grow(mp.scr.res[:0], n)
	res := mp.scr.res[:n]
	for s, h := range mp.sims {
		h.AccessBatch(ops, res)
		c := mp.l1[s].phase(phase)
		if c.ways == nil {
			c.ways = make([]wayCounts, mp.plan.keys[s].l1.Ways)
		}
		c.fold(ops, res, miss[mp.plan.owner[s]])
		for t := range mp.l2[s] {
			mp.l2[s][t].phase(phase).fold(h.L2Ops(), h.L2Results(t))
		}
	}
}

// tallies returns member k's counts on this side: its slot's L1 tally
// and, behind a second level, its tier's L2 tally (empty without one).
func (mp *multiPort) tallies(k int) (*tally[portCounters], *tally[l2Counters]) {
	s, t := mp.plan.slot[k], mp.plan.tier[k]
	if t < 0 {
		return &mp.l1[s], &tally[l2Counters]{}
	}
	return &mp.l1[s], &mp.l2[s][t]
}

// RunGroup replays one instruction stream through every member in a
// single pass and returns one Report per member, in member order, each
// bit-identical to replaying that member alone. All members must share
// the same memory latency (one timing model drives the pass); geometry,
// gating, design, mode and second level may differ freely.
//
// A member with Config.L2 replays its IL1 and DL1 against one unified
// L2 (shared with members of equal L1 state and L2 geometry, which
// evolve identically): per replay chunk, the IL1 miss traffic reaches
// the L2 first, then the DL1's — the deterministic chunk-order
// semantics of the batched hierarchy (cache.Hierarchy) — and its
// report gains per-level breakdowns in Levels. Phase-annotated streams
// additionally yield a per-phase segmentation of counters, time and EPI.
func RunGroup(name string, stream trace.Stream, members []GroupMember) ([]Report, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("core: empty replay group")
	}
	for k, gm := range members {
		if gm.Sys == nil {
			return nil, fmt.Errorf("core: nil system in replay group member %d", k)
		}
		if gm.Sys.cfg.MemLatency != members[0].Sys.cfg.MemLatency {
			return nil, fmt.Errorf("core: replay group mixes memory latencies %d and %d",
				members[0].Sys.cfg.MemLatency, gm.Sys.cfg.MemLatency)
		}
	}
	plan := planGroup(members)
	il1 := newMultiPort(members, plan, false)
	defer il1.release()
	dl1 := newMultiPort(members, plan, true)
	defer dl1.release()
	stats, err := cpu.RunMulti(cpu.Config{MemLatency: members[0].Sys.cfg.MemLatency}, il1, dl1, stream)
	if err != nil {
		return nil, err
	}
	if stats[0].Instructions == 0 {
		return nil, fmt.Errorf("core: empty instruction stream %q", name)
	}
	reports := make([]Report, len(members))
	for k, gm := range members {
		reports[k] = gm.Sys.assemble(name, gm.Mode, stats[k], il1, dl1, k)
	}
	return reports, nil
}

// RunGroupArena is RunGroup over a prepared slab (materialized or
// mmap-backed): the group shares one fresh cursor, so an N-member
// group costs one slab walk total. Safe for any number of concurrent
// calls on one slab.
func RunGroupArena(name string, a trace.Slab, members []GroupMember) ([]Report, error) {
	return RunGroup(name, a.NewCursor(), members)
}

// Pairs evaluates the baseline and proposed systems of one scenario
// over the workloads in one mode. Per workload both designs replay as
// one two-member group — one stream walk, one classification and, the
// designs' cache behaviour being identical at equal mode, one cache
// simulation per side. The stream is the workload's slab from arenas
// (generated at most once per cache lifetime, even across scenarios and
// modes) or, with a nil cache, a fresh generator stream. The two sized
// systems are shared by a pool of workers (0 = GOMAXPROCS), and pairs
// are collected by workload index, so the result is identical for any
// worker count and either source.
func Pairs(s yield.Scenario, m Mode, workloads []bench.Workload, arenas *bench.ArenaCache, workers int) ([]Pair, error) {
	base, err := NewSystem(PaperConfig(s, Baseline))
	if err != nil {
		return nil, err
	}
	prop, err := NewSystem(PaperConfig(s, Proposed))
	if err != nil {
		return nil, err
	}
	return sim.Map(workers, len(workloads), func(i int) (Pair, error) {
		w := workloads[i]
		var stream trace.Stream
		if arenas != nil {
			stream = arenas.Get(w).Cursor()
		} else {
			stream = w.Stream()
		}
		reps, err := RunGroup(w.Name, stream, []GroupMember{{base, m}, {prop, m}})
		if err != nil {
			return Pair{}, fmt.Errorf("core: %s: %w", w.Name, err)
		}
		return Pair{Workload: w.Name, Base: reps[0], Prop: reps[1]}, nil
	})
}

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
// stream is walked and classified once; only the cache accesses and
// energy tallies fan out per member. Every single-stream evaluation in
// the repo is such a group — System.Run is the one-member case — so a
// Report never depends on which other members shared its pass.
//
// Members without a second level whose cache geometry and way gating
// coincide (baseline vs proposed at the same mode, whose designs differ
// only in cell sizing, coding and latency, none of which touch cache
// *state*) share one simulator, so the paper's 8-member scenario ×
// mode × design group simulates only 2 distinct caches per side.
// Members of one slot that also split HP and ULE ways at the same index
// share one tally: the first of them folds the slot's outcomes into its
// counters, and the others copy its counters and miss row per chunk, so
// the 8-member group tallies twice per side instead of eight times. A
// member with Config.L2 gets its own L2 simulator, shared by its IL1 and
// DL1 (a unified second level), and its own cache.Hierarchy slot on each
// side; those slots, and their tallies, are never shared.

// GroupMember is one evaluation point of a replay group.
type GroupMember struct {
	Sys  *System
	Mode Mode
}

// simKey identifies cache simulators that evolve identically under any
// access sequence: same geometry, same initially-enabled way set.
// Everything else a member configures — EDC latency, cell sizing,
// energy models — lives outside the simulator state.
type simKey struct {
	cfg     cache.Config
	enabled uint64
}

// enabledMask packs a simulator's initially-enabled ways into the
// dedup key.
func enabledMask(sim *cache.Cache, ways int) uint64 {
	var m uint64
	for w := 0; w < ways; w++ {
		if sim.WayEnabled(w) {
			m |= 1 << w
		}
	}
	return m
}

// slotSim is one simulator slot of a bank: a *cache.Cache, or a
// *cache.Hierarchy for a member with a second level.
type slotSim interface {
	AccessBatch(ops []cache.Op, res []cache.Result)
}

// runScratch is one bank port's conversion scratch: the op list handed
// to the simulators and one Result row per slot, sized to the largest
// chunk seen. Scratch is pooled across runs (and therefore across sweep
// grid points — a sweep's steady state reuses one scratch set per pool
// slot instead of reallocating per replay).
type runScratch struct {
	ops []cache.Op
	res [][]cache.Result
}

var scratchPool = sync.Pool{New: func() any { return &runScratch{} }}

// multiPort is core's cpu-facing port: one side (IL1 or DL1) of a
// replay group, as a cpu.MultiPort — K logical ports (one tally state
// per member) over the group's simulator slots.
type multiPort struct {
	ports []*port   // logical member ports
	slot  []int     // member k's simulator slot
	lead  []int     // member k's tally lead: k itself, or an earlier member it copies
	sims  []slotSim // the distinct simulators, in slot order
	scr   *runScratch
}

// newMultiPort builds one side's bank port. l2s[k], when non-nil, is
// member k's second level: the member gets a private L1 chained in
// front of it as its own slot. Members without one share a slot by
// simKey, and a tally with the first member of their slot that has the
// same HP/ULE way split.
func newMultiPort(members []GroupMember, dside bool, l2s []*cache.Cache) *multiPort {
	mp := &multiPort{
		ports: make([]*port, len(members)),
		slot:  make([]int, len(members)),
		lead:  make([]int, len(members)),
		scr:   scratchPool.Get().(*runScratch),
	}
	var keys []simKey // per slot; zero for hierarchy slots
	for k, gm := range members {
		cfg := gm.Sys.cfg
		p := &port{hpWays: cfg.Ways - cfg.ULEWays}
		if dside {
			p.extra = gm.Sys.ExtraHitLatency(gm.Mode)
		}
		c := gm.Sys.newSim(gm.Mode)
		idx := len(mp.sims)
		if l2s[k] != nil {
			p.hier = cache.MustNewHierarchy(c, l2s[k])
			p.l2lat = cfg.L2.Latency
			mp.sims = append(mp.sims, p.hier)
			keys = append(keys, simKey{})
		} else if key := (simKey{cfg: c.Config(), enabled: enabledMask(c, cfg.Ways)}); slices.Contains(keys, key) {
			idx = slices.Index(keys, key)
		} else {
			mp.sims = append(mp.sims, c)
			keys = append(keys, key)
		}
		mp.ports[k] = p
		mp.slot[k] = idx
		mp.lead[k] = k
		for j := 0; j < k; j++ {
			if mp.slot[j] == idx && mp.ports[j].hpWays == p.hpWays {
				mp.lead[k] = j
				break
			}
		}
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

// AccessBatch implements cpu.MultiPort: one op conversion, one pass per
// simulator slot, then each tally lead folds its slot's outcomes into
// its energy counters and miss row. A follower's tally over the same
// Result sequence and way split would be identical, so it copies the
// lead's instead. Phase boundaries still reach every member, and a
// follower's segments diff the same counters as its lead's.
func (mp *multiPort) AccessBatch(ops []cpu.PortOp, miss [][]bool) {
	n := len(ops)
	scr := mp.scr
	if cap(scr.ops) < n {
		scr.ops = make([]cache.Op, n)
	}
	for len(scr.res) < len(mp.sims) {
		scr.res = append(scr.res, nil)
	}
	co := scr.ops[:n]
	for i, op := range ops {
		co[i] = cache.Op{Addr: op.Addr, Write: op.Write}
	}
	for s, c := range mp.sims {
		if cap(scr.res[s]) < n {
			scr.res[s] = make([]cache.Result, n)
		}
		c.AccessBatch(co, scr.res[s][:n])
	}
	for k, p := range mp.ports {
		if l := mp.lead[k]; l != k {
			p.portCounters = mp.ports[l].portCounters
			copy(miss[k], miss[l])
			continue
		}
		p.tallyChunk(co, scr.res[mp.slot[k]][:n], miss[k])
	}
}

// BeginPhase implements cpu.PhasePort, snapshotting every logical
// member's counters at the boundary.
func (mp *multiPort) BeginPhase(id uint8) {
	for _, p := range mp.ports {
		p.BeginPhase(id)
	}
}

// RunGroup replays one instruction stream through every member in a
// single pass and returns one Report per member, in member order, each
// bit-identical to replaying that member alone. All members must share
// the same memory latency (one timing model drives the pass); geometry,
// gating, design, mode and second level may differ freely.
//
// A member with Config.L2 replays its IL1 and DL1 against one unified
// L2 of its own: per replay chunk, the IL1 miss traffic reaches the L2
// first, then the DL1's — the deterministic chunk-order semantics of
// the batched hierarchy (cache.Hierarchy) — and its report gains
// per-level breakdowns in Levels. Phase-annotated streams additionally
// yield a per-phase segmentation of counters, time and EPI.
func RunGroup(name string, stream trace.Stream, members []GroupMember) ([]Report, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("core: empty replay group")
	}
	l2s := make([]*cache.Cache, len(members))
	for k, gm := range members {
		if gm.Sys == nil {
			return nil, fmt.Errorf("core: nil system in replay group member %d", k)
		}
		if gm.Sys.cfg.MemLatency != members[0].Sys.cfg.MemLatency {
			return nil, fmt.Errorf("core: replay group mixes memory latencies %d and %d",
				members[0].Sys.cfg.MemLatency, gm.Sys.cfg.MemLatency)
		}
		if gm.Sys.cfg.L2 != nil {
			l2s[k] = gm.Sys.newL2Sim()
		}
	}
	il1 := newMultiPort(members, false, l2s)
	defer il1.release()
	dl1 := newMultiPort(members, true, l2s)
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
		reports[k] = gm.Sys.assemble(name, gm.Mode, stats[k], il1.ports[k], dl1.ports[k])
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

package cpu

import (
	"sort"

	"edcache/internal/trace"
)

// scalarPort is the per-access port contract of the naive oracle.
type scalarPort interface {
	Port
	Access(addr uint32, write bool) (miss bool)
}

// naiveRun is the specification the replay loop is held to: one
// instruction at a time, one Access per cache reference, each
// instruction's cycles and events added to the run totals and — on a
// phase-annotated stream — to its phase's segment. It shares no code
// with the chunked loop (no classification, no ledger, no fold), so
// tests comparing the two do not depend on the code under test.
//
// Behind a TieredPort an L1 miss costs the L2 latency plus the memory
// latency for each demand fill it caused that missed the L2, read from
// the port's running counter around the access.
func naiveRun(cfg Config, il1, dl1 scalarPort, s trace.Stream) Stats {
	mem := uint64(cfg.MemLatency)
	access := func(p scalarPort, addr uint32, write bool) (miss bool, l1Cost, l2Misses uint64) {
		tp, tiered := p.(TieredPort)
		tiered = tiered && tp.L2Latency() > 0
		var before uint64
		if tiered {
			before = tp.L2FillMisses()
		}
		if !p.Access(addr, write) {
			return false, 0, 0
		}
		if !tiered {
			return true, mem, 0
		}
		return true, uint64(tp.L2Latency()), tp.L2FillMisses() - before
	}
	var st Stats
	phased := trace.HasPhases(s)
	segs := map[uint8]*Stats{}
	for {
		inst, ok := s.Next()
		if !ok {
			break
		}
		d := Stats{Instructions: 1, Cycles: 1, IAccesses: 1}
		if miss, cost, l2 := access(il1, inst.PC, false); miss {
			d.IMisses, d.IL2Misses = 1, l2
			d.MissCycles = cost + l2*mem
		}
		if inst.IsLoad || inst.IsStore {
			d.DAccesses = 1
			miss, cost, l2 := access(dl1, inst.Addr, !inst.IsLoad)
			if miss {
				d.DMisses, d.DL2Misses = 1, l2
				d.MissCycles += cost + l2*mem
			} else if inst.IsLoad && inst.UseDist > 0 {
				// The consumer sees the value after 1+extra cycles; a
				// consumer UseDist away hides UseDist of them.
				if stall := 1 + dl1.ExtraHitLatency() - int(inst.UseDist); stall > 0 {
					d.LoadUseStalls = uint64(stall)
				}
			}
		}
		switch {
		case inst.IsLoad:
			d.Loads = 1
		case inst.IsStore:
			d.Stores = 1
		case inst.IsBranch:
			d.Branches = 1
			if inst.Taken {
				d.TakenBranches = 1
			}
		}
		d.Cycles += d.MissCycles + d.LoadUseStalls
		addCounters(&st, d)
		if phased {
			seg := segs[inst.Phase]
			if seg == nil {
				seg = &Stats{}
				segs[inst.Phase] = seg
			}
			addCounters(seg, d)
		}
	}
	for id, seg := range segs {
		st.Phases = append(st.Phases, PhaseStats{Phase: id, Stats: *seg})
	}
	sort.Slice(st.Phases, func(i, j int) bool { return st.Phases[i].Phase < st.Phases[j].Phase })
	return st
}

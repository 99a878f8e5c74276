package core

import (
	"reflect"

	"edcache/internal/cache"
	"edcache/internal/cpu"
	"edcache/internal/trace"
)

// oracleChunk is cpu's replay chunk length. It is part of the timing
// semantics only where both L1s feed one unified L2: per chunk (cut
// further at phase changes) the L2 sees all IL1 traffic before the
// DL1's.
const oracleChunk = 1024

// naiveSide is one cache side of the naive oracle: a per-access call
// and, behind a second level, its running L2 fill-miss counter and
// service latency.
type naiveSide struct {
	access func(addr uint32, write bool) (miss bool)
	fills  func() uint64 // nil for a single-level side
	l2lat  uint64
}

// naiveSides builds fresh oracle sides for a system in a mode: plain
// simulators, or two hierarchies over one unified L2.
func naiveSides(s *System, m Mode) (il1, dl1 naiveSide) {
	if s.cfg.L2 == nil {
		return simSide(s.newSim(m)), simSide(s.newSim(m))
	}
	l2 := s.newL2Sim()
	side := func() naiveSide {
		h := cache.MustNewHierarchy(s.newSim(m), l2)
		return naiveSide{
			access: func(addr uint32, write bool) bool { return !h.Access(addr, write).Hit },
			fills:  h.FillMisses,
			l2lat:  uint64(s.cfg.L2.Latency),
		}
	}
	return side(), side()
}

func simSide(c *cache.Cache) naiveSide {
	return naiveSide{access: func(addr uint32, write bool) bool { return !c.Access(addr, write).Hit }}
}

// naiveStats is the reference timing of one member: one access per
// cache reference through plain per-access calls, every instruction's
// cycles added one by one. It shares no code with cpu's replay loop or
// core's ports. Per-phase segmentation is left out (Phases nil); the
// chunk walk only orders the two sides' traffic for a unified L2.
func naiveStats(memLatency, extra int, il1, dl1 naiveSide, insts []trace.Inst) cpu.Stats {
	return withoutPhases(naivePhasedStats(memLatency, extra, il1, dl1, insts))
}

// naivePhasedStats is naiveStats with the per-phase segmentation of a
// phase-annotated stream: each same-phase run is counted on its own and
// added, field by field, to the run total and to its phase id's
// segment; Phases lists the segments that saw instructions, by id.
func naivePhasedStats(memLatency, extra int, il1, dl1 naiveSide, insts []trace.Inst) cpu.Stats {
	mem := uint64(memLatency)
	var total cpu.Stats
	var segs [256]cpu.Stats
	// miss performs one access and returns whether it missed, the stall
	// it costs and the L2 fill misses it caused.
	miss := func(sd naiveSide, addr uint32, write bool) (bool, uint64, uint64) {
		var before uint64
		if sd.fills != nil {
			before = sd.fills()
		}
		if !sd.access(addr, write) {
			return false, 0, 0
		}
		if sd.fills == nil {
			return true, mem, 0
		}
		l2 := sd.fills() - before
		return true, sd.l2lat + l2*mem, l2
	}
	for len(insts) > 0 {
		chunk := insts[:min(oracleChunk, len(insts))]
		insts = insts[len(chunk):]
		for len(chunk) > 0 {
			n := 1
			for n < len(chunk) && chunk[n].Phase == chunk[0].Phase {
				n++
			}
			run := chunk[:n]
			chunk = chunk[n:]
			var st cpu.Stats
			for _, in := range run {
				st.Instructions++
				st.Cycles++
				st.IAccesses++
				if m, stall, l2 := miss(il1, in.PC, false); m {
					st.IMisses++
					st.IL2Misses += l2
					st.Cycles += stall
					st.MissCycles += stall
				}
			}
			for _, in := range run {
				switch {
				case in.IsLoad:
					st.Loads++
				case in.IsStore:
					st.Stores++
				case in.IsBranch:
					st.Branches++
					if in.Taken {
						st.TakenBranches++
					}
					continue
				default:
					continue
				}
				st.DAccesses++
				m, stall, l2 := miss(dl1, in.Addr, !in.IsLoad)
				if m {
					st.DMisses++
					st.DL2Misses += l2
					st.Cycles += stall
					st.MissCycles += stall
				} else if in.IsLoad && in.UseDist > 0 && 1+extra > int(in.UseDist) {
					stall := uint64(1 + extra - int(in.UseDist))
					st.Cycles += stall
					st.LoadUseStalls += stall
				}
			}
			addStats(&total, st)
			addStats(&segs[run[0].Phase], st)
		}
	}
	for id, seg := range segs {
		if seg.Instructions > 0 {
			total.Phases = append(total.Phases, cpu.PhaseStats{Phase: uint8(id), Stats: seg})
		}
	}
	return total
}

// addStats adds every counter of d into dst by reflection, so the
// oracle shares no accumulation code with cpu.
func addStats(dst *cpu.Stats, d cpu.Stats) {
	dv, sv := reflect.ValueOf(dst).Elem(), reflect.ValueOf(d)
	for i := 0; i < dv.NumField(); i++ {
		if f := dv.Field(i); f.Kind() == reflect.Uint64 {
			f.SetUint(f.Uint() + sv.Field(i).Uint())
		}
	}
}

// collect drains a stream into a slice for the oracle.
func collect(s trace.Stream) []trace.Inst {
	var insts []trace.Inst
	for {
		in, ok := s.Next()
		if !ok {
			return insts
		}
		insts = append(insts, in)
	}
}

// withoutPhases returns st with its per-phase segmentation dropped, for
// comparison against naiveStats.
func withoutPhases(st cpu.Stats) cpu.Stats {
	st.Phases = nil
	return st
}

// runOne replays a stream through one member alone.
func runOne(sys *System, name string, s trace.Stream, m Mode) (Report, error) {
	reps, err := RunGroup(name, s, []GroupMember{{sys, m}})
	if err != nil {
		return Report{}, err
	}
	return reps[0], nil
}

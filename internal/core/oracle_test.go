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

// naiveL1 builds a fresh L1 simulator for a system in a mode, gating
// ways one by one as the paper describes: ULE mode powers only the ULE
// ways, and HP mode gates them when GateULEWaysAtHP is set.
func naiveL1(s *System, m Mode) *cache.Cache {
	c := cache.MustNew(cache.Config{Sets: s.cfg.Sets, Ways: s.cfg.Ways, LineBytes: s.cfg.LineBytes})
	for w := 0; w < s.cfg.Ways; w++ {
		ule := w >= s.cfg.Ways-s.cfg.ULEWays
		if (m == ModeULE && !ule) || (m == ModeHP && ule && s.cfg.GateULEWaysAtHP) {
			c.SetWayEnabled(w, false)
		}
	}
	return c
}

// naiveL2 builds a fresh second-level simulator with the ways past its
// EnabledWays cap (0 for none) gated, in either mode.
func naiveL2(s *System) *cache.Cache {
	l2 := cache.MustNew(cache.Config{Sets: s.cfg.L2.Sets, Ways: s.cfg.L2.Ways, LineBytes: s.cfg.L2.LineBytes})
	for w := s.cfg.L2.EnabledWays; s.cfg.L2.EnabledWays > 0 && w < s.cfg.L2.Ways; w++ {
		l2.SetWayEnabled(w, false)
	}
	return l2
}

// naiveSides builds fresh oracle sides for a system in a mode: plain
// simulators, or two hierarchies over one unified L2.
func naiveSides(s *System, m Mode) (il1, dl1 naiveSide) {
	if s.cfg.L2 == nil {
		return simSide(naiveL1(s, m)), simSide(naiveL1(s, m))
	}
	l2 := naiveL2(s)
	side := func() naiveSide {
		h := cache.MustNewHierarchy(naiveL1(s, m), l2)
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
	for w := s.NextSlice(1024); len(w) > 0; w = s.NextSlice(1024) {
		insts = append(insts, w...)
	}
	return insts
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

package core

import (
	"reflect"
	"testing"

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
// given the access's phase id and, behind a second level, its running
// L2 fill-miss counter and service latency. Sides over the oracle's
// own simulators also count their energy events in ev.
type naiveSide struct {
	access func(phase uint8, addr uint32, write bool) (miss bool)
	fills  func() uint64 // nil for a single-level side
	l2lat  uint64
	ev     *naiveEvents // nil on sides that count no events
}

// naiveCount is one side's energy events over one phase (or the run),
// counted access by access from plain cache.Results. Way classes are
// indexed 0 for HP ways, 1 for ULE ways.
type naiveCount struct {
	reads, writes          uint64
	fills, wbs, wordWrites [2]uint64
	// l2 counts the second level's reads, writes, fills and
	// write-backs, in that order.
	l2 [4]uint64
}

// naiveEvents is one side's event counts for the run and per phase id.
type naiveEvents struct {
	run   naiveCount
	phase [256]naiveCount
}

// countL1 counts one L1 access: its lookup, the fill and any dirty
// victim's write-back on a miss, and a store's word write into the way
// it hit or filled (write-allocate), each in the class of Result.Way.
func (e *naiveEvents) countL1(phase uint8, r cache.Result, write bool, hpWays int) {
	class := 0
	if r.Way >= hpWays {
		class = 1
	}
	for _, c := range []*naiveCount{&e.run, &e.phase[phase]} {
		if write {
			c.writes++
			c.wordWrites[class]++
		} else {
			c.reads++
		}
		if !r.Hit {
			c.fills[class]++
			if r.Writeback {
				c.wbs[class]++
			}
		}
	}
}

// countL2 counts the L2 traffic of the hierarchy's last access.
func (e *naiveEvents) countL2(phase uint8, h *cache.Hierarchy) {
	ops, rs := h.L2Ops(), h.L2Results(0)
	for _, c := range []*naiveCount{&e.run, &e.phase[phase]} {
		for i, r := range rs {
			if ops[i].Write {
				c.l2[1]++
			} else {
				c.l2[0]++
			}
			if !r.Hit {
				c.l2[2]++
				if r.Writeback {
					c.l2[3]++
				}
			}
		}
	}
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

// naiveL2 builds a fresh second-level simulator, all ways powered in
// either mode.
func naiveL2(s *System) *cache.Cache {
	return cache.MustNew(cache.Config{Sets: s.cfg.L2.Sets, Ways: s.cfg.L2.Ways, LineBytes: s.cfg.L2.LineBytes})
}

// naiveSides builds fresh oracle sides for a system in a mode: plain
// simulators, or two hierarchies over one unified L2.
// Both sides count their events, the L1's split into HP and ULE way
// classes by the system's HP way count.
func naiveSides(s *System, m Mode) (il1, dl1 naiveSide) {
	hpWays := s.cfg.Ways - s.cfg.ULEWays
	if s.cfg.L2 == nil {
		side := func() naiveSide {
			c, ev := naiveL1(s, m), new(naiveEvents)
			return naiveSide{ev: ev, access: func(phase uint8, addr uint32, write bool) bool {
				r := c.Access(addr, write)
				ev.countL1(phase, r, write, hpWays)
				return !r.Hit
			}}
		}
		return side(), side()
	}
	l2 := naiveL2(s)
	side := func() naiveSide {
		h, ev := cache.MustNewHierarchy(naiveL1(s, m), l2), new(naiveEvents)
		return naiveSide{
			access: func(phase uint8, addr uint32, write bool) bool {
				r := h.Access(addr, write)
				ev.countL1(phase, r, write, hpWays)
				ev.countL2(phase, h)
				return !r.Hit
			},
			fills: func() uint64 { return h.FillMisses(0) },
			l2lat: uint64(s.cfg.L2.Latency),
			ev:    ev,
		}
	}
	return side(), side()
}

// naiveStats is the reference timing of one member: one access per
// cache reference through plain per-access calls, every instruction's
// cycles added one by one. It shares no code with cpu's replay loop or
// core's ports; sides built by naiveSides count their energy events
// along the way. Per-phase segmentation is left out (Phases nil); the
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
	miss := func(sd naiveSide, phase uint8, addr uint32, write bool) (bool, uint64, uint64) {
		var before uint64
		if sd.fills != nil {
			before = sd.fills()
		}
		if !sd.access(phase, addr, write) {
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
				if m, stall, l2 := miss(il1, in.Phase, in.PC, false); m {
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
				m, stall, l2 := miss(dl1, in.Phase, in.Addr, !in.IsLoad)
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

// counters converts one side's naive counts into the accounting's
// input types: the HP class lands in way 0 and the ULE class in the
// L1's last way. Pricing sums ways by class, so any way of the class
// would do; the last way keeps a misplaced HP/ULE boundary visible on
// splits with more than one ULE way.
func (c naiveCount) counters(ways int) (portCounters, l2Counters) {
	p := portCounters{reads: c.reads, writes: c.writes, ways: make([]wayCounts, ways)}
	for class, w := range []int{0, ways - 1} {
		p.ways[w].add(wayCounts{fills: c.fills[class], wbs: c.wbs[class], wordWrites: c.wordWrites[class]})
	}
	return p, l2Counters{reads: c.l2[0], writes: c.l2[1], fills: c.l2[2], wbs: c.l2[3]}
}

// checkEnergyOracle replays insts through the naive oracle for one
// member and holds the member's Report to it: Stats (Phases included)
// equal, and the run-level and every per-phase EPI and Levels equal to
// breakdown and levelize applied to the oracle's own event counts. The
// energy model is shared with the code under test; the counting is not.
func checkEnergyOracle(t *testing.T, label string, got Report, gm GroupMember, insts []trace.Inst) {
	t.Helper()
	s, m := gm.Sys, gm.Mode
	il1, dl1 := naiveSides(s, m)
	st := naivePhasedStats(s.cfg.MemLatency, s.ExtraHitLatency(m), il1, dl1, insts)
	if !reflect.DeepEqual(got.Stats, st) {
		t.Errorf("%s: stats diverge from the naive oracle:\n got  %+v\n want %+v", label, got.Stats, st)
		return
	}
	price := func(st cpu.Stats, i, d naiveCount) (Breakdown, []LevelEPI) {
		timeNS := float64(st.Cycles) / s.cfg.FreqGHz(m)
		ip, il2 := i.counters(s.cfg.Ways)
		dp, dl2 := d.counters(s.cfg.Ways)
		b := s.breakdown(m, ip, dp, st.Instructions, timeNS)
		if s.cfg.L2 == nil {
			return b, nil
		}
		l2 := l2Counters{reads: il2.reads + dl2.reads, writes: il2.writes + dl2.writes,
			fills: il2.fills + dl2.fills, wbs: il2.wbs + dl2.wbs}
		return b, s.levelize(m, &b, st, l2, timeNS)
	}
	if epi, lv := price(st, il1.ev.run, dl1.ev.run); got.EPI != epi || !reflect.DeepEqual(got.Levels, lv) {
		t.Errorf("%s: run energy diverges from the naive counts:\n got  %+v %+v\n want %+v %+v", label, got.EPI, got.Levels, epi, lv)
	}
	if len(got.Phases) != len(st.Phases) {
		t.Fatalf("%s: %d phase reports, naive oracle has %d segments", label, len(got.Phases), len(st.Phases))
	}
	for i, seg := range st.Phases {
		epi, lv := price(seg.Stats, il1.ev.phase[seg.Phase], dl1.ev.phase[seg.Phase])
		if pr := got.Phases[i]; pr.Phase != seg.Phase || pr.EPI != epi || !reflect.DeepEqual(pr.Levels, lv) {
			t.Errorf("%s phase %d: energy diverges from the naive counts:\n got  %+v %+v\n want %+v %+v",
				label, seg.Phase, pr.EPI, pr.Levels, epi, lv)
		}
	}
}

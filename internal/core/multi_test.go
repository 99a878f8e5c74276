package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"edcache/internal/bench"
	"edcache/internal/cache"
	"edcache/internal/cpu"
	"edcache/internal/ecc"
	"edcache/internal/trace"
	"edcache/internal/yield"
)

// TestRunGroupBitIdenticalToRunStream is the single-pass engine's
// System-level contract: one RunGroupArena pass over the full
// design×mode group must produce, member by member, Reports
// bit-identical to replaying that member alone — counters, cycles,
// per-phase segmentation, energy — for plain, dependent-load and
// phase-annotated workloads across both scenarios, with every member's
// run-level counters equal to the naive oracle's.
func TestRunGroupBitIdenticalToRunStream(t *testing.T) {
	arenas := bench.NewArenaCache()
	for _, sc := range []yield.Scenario{yield.ScenarioA, yield.ScenarioB} {
		base := MustNewSystem(PaperConfig(sc, Baseline))
		prop := MustNewSystem(PaperConfig(sc, Proposed))
		members := []GroupMember{
			{base, ModeHP}, {prop, ModeHP}, {base, ModeULE}, {prop, ModeULE},
		}
		for _, name := range []string{"gsm_c", "ptrchase_s", "phased_mix"} {
			w, err := bench.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			w = w.ScaledTo(10_000)
			got, err := RunGroupArena(w.Name, arenas.Get(w), members)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(members) {
				t.Fatalf("%v/%s: %d reports for %d members", sc, name, len(got), len(members))
			}
			for k, gm := range members {
				checkMember(t, fmt.Sprintf("%v/%s member %d", sc, name, k), got[k], gm, w, arenas.Get(w))
				if name == "phased_mix" && len(got[k].Phases) == 0 {
					t.Errorf("%v/%s member %d: group replay lost the per-phase segmentation", sc, name, k)
				}
			}
		}
	}
}

// checkMember holds one group member's Report to the member replayed
// alone (bit for bit) and its counters to the naive oracle.
func checkMember(t *testing.T, label string, got Report, gm GroupMember, w bench.Workload, slab trace.Slab) {
	t.Helper()
	alone, err := runOne(gm.Sys, w.Name, slab.NewCursor(), gm.Mode)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, alone) {
		t.Errorf("%s (%s/%v): group Report diverges from the member alone", label, gm.Sys.Config().Name(), gm.Mode)
	}
	il1, dl1 := naiveSides(gm.Sys, gm.Mode)
	want := naiveStats(gm.Sys.cfg.MemLatency, gm.Sys.ExtraHitLatency(gm.Mode), il1, dl1, collect(slab.NewCursor()))
	if st := withoutPhases(got.Stats); !reflect.DeepEqual(st, want) {
		t.Errorf("%s (%s/%v): stats diverge from the naive oracle:\n got  %+v\n want %+v",
			label, gm.Sys.Config().Name(), gm.Mode, st, want)
	}
}

// TestGroupDedupSharesSimulators pins the bank-slot sharing that makes
// a design×mode group cheap: baseline and proposed at the same mode
// have identical cache geometry and gating, so the 4-member paper group
// must build only 2 distinct simulators and 2 L1 tallies per side. A
// member with a second level shares the L1 slot, and the L1 tally, of
// a flat member of identical L1 state.
func TestGroupDedupSharesSimulators(t *testing.T) {
	base := MustNewSystem(PaperConfig(yield.ScenarioA, Baseline))
	prop := MustNewSystem(PaperConfig(yield.ScenarioA, Proposed))
	members := []GroupMember{
		{base, ModeHP}, {prop, ModeHP}, {base, ModeULE}, {prop, ModeULE},
	}
	plan := checkPlan(t, "design×mode group", members, []int{0, 0, 1, 1}, []int{-1, -1, -1, -1}, 0)
	mp := newMultiPort(members, plan, true)
	defer mp.release()
	// The EDC latency stays per logical member despite the shared slot.
	if mp.Member(2).ExtraHitLatency() != 0 || mp.Member(3).ExtraHitLatency() != 1 {
		t.Fatalf("ULE extra latencies = %d/%d, want 0 (baseline) and 1 (proposed)",
			mp.Member(2).ExtraHitLatency(), mp.Member(3).ExtraHitLatency())
	}
	// Gated configurations must not share with ungated ones.
	gatedCfg := PaperConfig(yield.ScenarioA, Baseline)
	gatedCfg.GateULEWaysAtHP = true
	gated := MustNewSystem(gatedCfg)
	checkPlan(t, "gated vs ungated HP", []GroupMember{{base, ModeHP}, {gated, ModeHP}}, []int{0, 1}, []int{-1, -1}, 0)
	// A hierarchy member shares the L1 of a flat member of identical
	// L1 state; its L2 traffic has a tally of its own.
	tiered := MustNewSystem(PaperConfig(yield.ScenarioA, Baseline).WithL2(testL2()))
	checkPlan(t, "flat vs hierarchy", []GroupMember{{base, ModeHP}, {tiered, ModeHP}, {base, ModeHP}, {tiered, ModeHP}},
		[]int{0, 0, 0, 0}, []int{-1, 0, -1, 0}, 1)
}

// checkPlan plans a group and requires the given slots and tiers with
// l2s distinct L2s, each member's outcome row its slot's first member,
// and both sides' banks built over the plan to hold one hierarchy and
// one L1 tally per slot and one L2 tally per tier, each side's own L1
// in front of the slot's tier L2s: the IL1 and DL1 of slot s front the
// same *cache.Cache at each tier, no L2 serves two tiers, and every
// member's port reads its slot's hierarchy at a tier of its own L2
// geometry.
func checkPlan(t *testing.T, label string, members []GroupMember, wantSlot, wantTier []int, l2s int) *groupPlan {
	t.Helper()
	plan := planGroup(members)
	if !reflect.DeepEqual(plan.slot, wantSlot) || !reflect.DeepEqual(plan.tier, wantTier) {
		t.Fatalf("%s: slots %v, tiers %v; want %v, %v", label, plan.slot, plan.tier, wantSlot, wantTier)
	}
	il1, dl1 := newMultiPort(members, plan, false), newMultiPort(members, plan, true)
	defer il1.release()
	defer dl1.release()
	slots := slices.Max(wantSlot) + 1
	for _, mp := range []*multiPort{il1, dl1} {
		if len(mp.sims) != slots {
			t.Fatalf("%s: %d simulators on one side, want %d", label, len(mp.sims), slots)
		}
		if n1, n2 := tallyCounts(mp); n1 != slots || n2 != l2s {
			t.Fatalf("%s: %d L1 and %d L2 tallies on one side, want %d and %d", label, n1, n2, slots, l2s)
		}
		for k, s := range wantSlot {
			if row := mp.Row(k); row != slices.Index(wantSlot, s) {
				t.Fatalf("%s member %d: outcome row %d, want its slot's first member %d", label, k, row, slices.Index(wantSlot, s))
			}
		}
	}
	distinct := map[*cache.Cache]bool{}
	for s, tiers := range plan.tiers {
		i, d := il1.sims[s], dl1.sims[s]
		if i.L1() == d.L1() {
			t.Fatalf("%s slot %d: IL1 and DL1 must front the slot's tiers from their own L1s", label, s)
		}
		for tr, l2 := range tiers {
			if i.L2(tr) != l2 || d.L2(tr) != l2 || distinct[l2] {
				t.Fatalf("%s slot %d tier %d: IL1 and DL1 must front the tier's own L2", label, s, tr)
			}
			distinct[l2] = true
		}
	}
	if len(distinct) != l2s {
		t.Fatalf("%s: %d distinct L2s, want %d", label, len(distinct), l2s)
	}
	for k, slot := range plan.slot {
		l2 := members[k].Sys.cfg.L2
		for _, mp := range []*multiPort{il1, dl1} {
			p := mp.ports[k]
			if p.hier != mp.sims[slot] || p.tier != plan.tier[k] || (p.tier < 0) != (l2 == nil) {
				t.Fatalf("%s member %d: port reads hierarchy %p tier %d, want its slot's %p tier %d",
					label, k, p.hier, p.tier, mp.sims[slot], plan.tier[k])
			}
			if l2 != nil && p.hier.L2(p.tier).Config() != (cache.Config{Sets: l2.Sets, Ways: l2.Ways, LineBytes: l2.LineBytes}) {
				t.Fatalf("%s member %d: tier %d is %+v, not the member's L2 geometry", label, k, p.tier, p.hier.L2(p.tier).Config())
			}
		}
	}
	return plan
}

// tallyCounts returns a side's numbers of L1 and L2 tallies.
func tallyCounts(mp *multiPort) (l1, l2 int) {
	for s := range mp.l1 {
		l2 += len(mp.l2[s])
	}
	return len(mp.l1), l2
}

// checkTallies replays members over stream as RunGroup does and
// requires each side to keep l1 L1 tallies and l2 L2 tallies, each
// folded once per chunk: every L1 tally counts each of its side's
// accesses once, and every L2 tally one demand fill read per miss of
// its slot's L1.
func checkTallies(t *testing.T, label string, members []GroupMember, stream trace.Stream, l1, l2 int) {
	t.Helper()
	plan := planGroup(members)
	il1, dl1 := newMultiPort(members, plan, false), newMultiPort(members, plan, true)
	defer il1.release()
	defer dl1.release()
	stats, err := cpu.RunMulti(cpu.Config{MemLatency: members[0].Sys.cfg.MemLatency}, il1, dl1, stream)
	if err != nil {
		t.Fatal(err)
	}
	for side, mp := range []*multiPort{il1, dl1} {
		name := [2]string{"IL1", "DL1"}[side]
		if n1, n2 := tallyCounts(mp); n1 != l1 || n2 != l2 {
			t.Fatalf("%s %s: %d L1 and %d L2 tallies, want %d and %d", label, name, n1, n2, l1, l2)
		}
		for s := range mp.l1 {
			st := stats[plan.owner[s]]
			accesses, misses := st.IAccesses, st.IMisses
			if side == 1 {
				accesses, misses = st.DAccesses, st.DMisses
			}
			var c portCounters
			if c.add(mp.l1[s].cs...); c.reads+c.writes != accesses {
				t.Errorf("%s %s slot %d: L1 tally counts %d accesses, want %d", label, name, s, c.reads+c.writes, accesses)
			}
			for tr := range mp.l2[s] {
				var c l2Counters
				if c.add(mp.l2[s][tr].cs...); c.reads != misses {
					t.Errorf("%s %s slot %d tier %d: L2 tally counts %d fill reads, want %d", label, name, s, tr, c.reads, misses)
				}
			}
		}
	}
}

// TestHierGroupSharesEqualShapes pins the hierarchy slot sharing on a
// hier-epi-shaped group — 2 L2 geometries × 3 protections, one L1 per
// side in front of 2 tiers — plus members that differ from the first
// only in L2 latency (shares its tier), in mode (another L1: its own
// slot, with an L2 of its own) and in having no L2 at all (shares the
// L1 slot). Both sides must hold the asserted slots and tiers, one
// tally per slot and tier, over the same L2s, and every
// member's Report must equal the member replayed alone, with Stats
// equal to the naive unified-L2 oracle on plain and phase-annotated
// streams.
func TestHierGroupSharesEqualShapes(t *testing.T) {
	tiered := func(sets, ways, latency int, prot ecc.Kind) *System {
		return MustNewSystem(PaperConfig(yield.ScenarioA, Proposed).WithL2(L2Config{
			Sets: sets, Ways: ways, LineBytes: 32, Latency: latency, Protection: prot}))
	}
	var members []GroupMember
	for _, g := range [][2]int{{64, 8}, {256, 4}} {
		for _, prot := range []ecc.Kind{ecc.KindNone, ecc.KindSECDED, ecc.KindDECTED} {
			members = append(members, GroupMember{tiered(g[0], g[1], 6, prot), ModeHP})
		}
	}
	members = append(members,
		GroupMember{tiered(64, 8, 9, ecc.KindNone), ModeHP},
		GroupMember{tiered(64, 8, 6, ecc.KindNone), ModeULE},
		GroupMember{MustNewSystem(PaperConfig(yield.ScenarioA, Proposed)), ModeHP},
	)
	// The hier-epi shape alone: 1 slot per side over 2 L2s.
	checkPlan(t, "hier-epi group", members[:6],
		[]int{0, 0, 0, 0, 0, 0}, []int{0, 0, 0, 1, 1, 1}, 2)
	checkPlan(t, "extended group", members,
		[]int{0, 0, 0, 0, 0, 0, 0, 1, 0}, []int{0, 0, 0, 1, 1, 1, 0, 0, -1}, 3)

	arenas := bench.NewArenaCache()
	for _, tc := range []struct {
		name  string
		insts int
	}{{"gsm_c", 12_000}, {"adversarial_l1", 12_000}, {"phased_mix", 45_000}} {
		name := tc.name
		w, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		w = w.ScaledTo(tc.insts)
		slab := arenas.Get(w)
		got, err := RunGroupArena(w.Name, slab, members)
		if err != nil {
			t.Fatal(err)
		}
		for k, gm := range members {
			label := fmt.Sprintf("%s member %d", name, k)
			checkMember(t, label, got[k], gm, w, slab)
			if !slab.HasPhases() {
				continue
			}
			if len(got[k].Phases) < 2 {
				t.Fatalf("%s: %d phase segments, want a phase boundary", label, len(got[k].Phases))
			}
			il1, dl1 := naiveSides(gm.Sys, gm.Mode)
			want := naivePhasedStats(gm.Sys.cfg.MemLatency, gm.Sys.ExtraHitLatency(gm.Mode), il1, dl1, collect(slab.NewCursor()))
			if !reflect.DeepEqual(got[k].Stats, want) {
				t.Errorf("%s: phased stats diverge from the naive oracle:\n got  %+v\n want %+v", label, got[k].Stats, want)
			}
		}
		if got[0].Stats.IL2Misses+got[0].Stats.DL2Misses == 0 {
			t.Errorf("%s: L2 members show no L2 fill misses", name)
		}
	}
}

// TestSharedTallyMatchesAlone pins the shared tallies over a
// phase-annotated stream: in the paper's 8-member scenario × mode ×
// design group the four members of each mode share one slot and so one
// L1 tally per side; two members that share a slot but split their
// ways differently (ULE ways 1 vs 2, HP mode, no gating) still share
// its one L1 tally, the split being priced per member; and a hier
// group over 3 L2 geometries keeps 1 L1 tally and 3 L2 tallies per
// side. Every tally must count each access (or L1 miss) once, and every
// member's Report — Phases included — must equal the member replayed
// alone, with Stats equal to the naive oracle's and, for the way-split
// group, energy equal to the naive oracle's HP/ULE counts priced.
func TestSharedTallyMatchesAlone(t *testing.T) {
	var paper []GroupMember
	for _, sc := range []yield.Scenario{yield.ScenarioA, yield.ScenarioB} {
		base := MustNewSystem(PaperConfig(sc, Baseline))
		prop := MustNewSystem(PaperConfig(sc, Proposed))
		for _, m := range []Mode{ModeHP, ModeULE} {
			paper = append(paper, GroupMember{base, m}, GroupMember{prop, m})
		}
	}
	split := PaperConfig(yield.ScenarioA, Baseline)
	split.ULEWays = 2
	mixed := []GroupMember{paper[0], {MustNewSystem(split), ModeHP}, paper[1]}
	var hier []GroupMember
	for _, g := range [][2]int{{64, 4}, {128, 8}, {512, 16}} {
		hier = append(hier, GroupMember{MustNewSystem(PaperConfig(yield.ScenarioA, Proposed).WithL2(L2Config{
			Sets: g[0], Ways: g[1], LineBytes: 32, Latency: 6})), ModeHP})
	}
	w, err := bench.ByName("phased_mix")
	if err != nil {
		t.Fatal(err)
	}
	w = w.ScaledTo(45_000)
	slab := bench.NewArenaCache().Get(w)
	for _, tc := range []struct {
		name    string
		members []GroupMember
		l1, l2  int  // tallies per side
		energy  bool // hold energy to the naive oracle too
	}{
		{"paper group", paper, 2, 0, false},
		{"way split 7+1 vs 6+2", mixed, 1, 0, true},
		{"3-geometry hier group", hier, 1, 3, false},
	} {
		checkTallies(t, tc.name, tc.members, slab.NewCursor(), tc.l1, tc.l2)
		got, err := RunGroupArena(w.Name, slab, tc.members)
		if err != nil {
			t.Fatal(err)
		}
		for k, gm := range tc.members {
			label := fmt.Sprintf("%s member %d (%s/%v)", tc.name, k, gm.Sys.Config().Name(), gm.Mode)
			if len(got[k].Phases) < 2 {
				t.Fatalf("%s: %d phase segments, want a phase boundary", label, len(got[k].Phases))
			}
			alone, err := runOne(gm.Sys, w.Name, slab.NewCursor(), gm.Mode)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[k], alone) {
				t.Errorf("%s: group Report diverges from the member alone", label)
			}
			il1, dl1 := naiveSides(gm.Sys, gm.Mode)
			want := naivePhasedStats(gm.Sys.cfg.MemLatency, gm.Sys.ExtraHitLatency(gm.Mode), il1, dl1, collect(slab.NewCursor()))
			if !reflect.DeepEqual(got[k].Stats, want) {
				t.Errorf("%s: stats diverge from the naive oracle:\n got  %+v\n want %+v", label, got[k].Stats, want)
			}
			if tc.energy {
				checkEnergyOracle(t, label, got[k], gm, collect(slab.NewCursor()))
			}
		}
	}
}

// TestRunPairsMultiMatchesRunPairsArena pins the grouped fan-out entry
// point against the per-replay one, for every worker count: Pairs, which
// replays baseline and proposed as one two-member group, must equal
// pairs built from each design replayed alone over the same slab.
func TestRunPairsMultiMatchesRunPairsArena(t *testing.T) {
	ws := bench.Small()
	for i := range ws {
		ws[i] = ws[i].ScaledTo(5_000)
	}
	arenas := bench.NewArenaCache()
	base := MustNewSystem(PaperConfig(yield.ScenarioB, Baseline))
	prop := MustNewSystem(PaperConfig(yield.ScenarioB, Proposed))
	want := make([]Pair, len(ws))
	for i, w := range ws {
		b, err := RunGroupArena(w.Name, arenas.Get(w), []GroupMember{{base, ModeULE}})
		if err != nil {
			t.Fatal(err)
		}
		p, err := RunGroupArena(w.Name, arenas.Get(w), []GroupMember{{prop, ModeULE}})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = Pair{Workload: w.Name, Base: b[0], Prop: p[0]}
	}
	for _, workers := range []int{1, 8} {
		got, err := Pairs(yield.ScenarioB, ModeULE, ws, arenas, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: grouped pairs diverge from per-replay pairs", workers)
		}
	}
}

// TestRunGroupL2MemberMatchesAloneAndOracle lifts the old refusal of
// hierarchy members: in a mixed group of flat and tiered members, each
// L2 member's Report must equal the same member replayed alone, and its
// counters — L2 fill misses and the tiered miss pricing included — the
// naive oracle over a unified L2.
func TestRunGroupL2MemberMatchesAloneAndOracle(t *testing.T) {
	flatBase := MustNewSystem(PaperConfig(yield.ScenarioA, Baseline))
	flatProp := MustNewSystem(PaperConfig(yield.ScenarioA, Proposed))
	tiered := MustNewSystem(PaperConfig(yield.ScenarioA, Proposed).WithL2(testL2()))
	small := MustNewSystem(PaperConfig(yield.ScenarioA, Baseline).WithL2(L2Config{
		Sets: 16, Ways: 2, LineBytes: 32, Latency: 4}))
	members := []GroupMember{
		{flatBase, ModeHP}, {tiered, ModeHP}, {small, ModeULE}, {flatProp, ModeULE}, {tiered, ModeULE},
	}
	arenas := bench.NewArenaCache()
	for _, name := range []string{"gsm_c", "adversarial_l1", "phased_mix"} {
		w, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		w = w.ScaledTo(12_000)
		got, err := RunGroupArena(w.Name, arenas.Get(w), members)
		if err != nil {
			t.Fatal(err)
		}
		for k, gm := range members {
			checkMember(t, fmt.Sprintf("%s member %d", name, k), got[k], gm, w, arenas.Get(w))
			if gm.Sys.cfg.L2 != nil && (len(got[k].Levels) != 2 || got[k].Stats.IL2Misses+got[k].Stats.DL2Misses == 0) {
				t.Errorf("%s member %d: hierarchy member without live L2 rows: %+v", name, k, got[k].Levels)
			}
		}
	}
}

func TestRunGroupValidation(t *testing.T) {
	w, err := bench.ByName("gsm_c")
	if err != nil {
		t.Fatal(err)
	}
	w = w.ScaledTo(100)
	if _, err := RunGroup("x", w.Stream(), nil); err == nil {
		t.Fatal("empty group accepted")
	}
	sys := MustNewSystem(PaperConfig(yield.ScenarioA, Baseline))
	if _, err := RunGroup("x", w.Stream(), []GroupMember{{nil, ModeHP}}); err == nil {
		t.Fatal("nil system accepted")
	}
	slowCfg := PaperConfig(yield.ScenarioA, Baseline)
	slowCfg.MemLatency = 30
	slow := MustNewSystem(slowCfg)
	if _, err := RunGroup("x", w.Stream(), []GroupMember{{sys, ModeHP}, {slow, ModeHP}}); err == nil {
		t.Fatal("mixed memory latencies accepted")
	}
}

// BenchmarkPaperGroup measures the replay the paper experiments run per
// workload: the 8-member scenario × mode × design group (2 slots per
// side) over one 300k-instruction gsm_c slab, built before the timer.
// ns/inst is the group's cost per instruction of the stream.
func BenchmarkPaperGroup(b *testing.B) {
	paper, _ := oracleGroups()
	w, err := bench.ByName("gsm_c")
	if err != nil {
		b.Fatal(err)
	}
	w = w.ScaledTo(300_000)
	slab := bench.NewArenaCache().Get(w)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunGroupArena(w.Name, slab, paper); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(w.Instructions), "ns/inst")
}

// TestTallyKeepsOneEntryPerPhaseSeen pins the tallies' size to the
// phase ids a stream carries, not to their values: over a stream in
// phases 0, 255 and 0 again, every L1 and L2 tally on both sides holds
// exactly 2 entries, for ids 0 and 255 in first-seen order.
func TestTallyKeepsOneEntryPerPhaseSeen(t *testing.T) {
	members := []GroupMember{{MustNewSystem(PaperConfig(yield.ScenarioA, Proposed).WithL2(testL2())), ModeHP}}
	plan := planGroup(members)
	il1, dl1 := newMultiPort(members, plan, false), newMultiPort(members, plan, true)
	defer il1.release()
	defer dl1.release()
	s := &trace.SliceStream{Insts: phasedOracleInsts(0, 255)}
	if _, err := cpu.RunMulti(cpu.Config{MemLatency: members[0].Sys.cfg.MemLatency}, il1, dl1, s); err != nil {
		t.Fatal(err)
	}
	want := []uint8{0, 255}
	for side, mp := range []*multiPort{il1, dl1} {
		l1, l2 := mp.tallies(0)
		if !reflect.DeepEqual(l1.ids, want) || len(l1.cs) != 2 || !reflect.DeepEqual(l2.ids, want) || len(l2.cs) != 2 {
			t.Errorf("side %d: L1 tally ids %v (%d entries), L2 tally ids %v (%d entries), want %v and 2 entries each",
				side, l1.ids, len(l1.cs), l2.ids, len(l2.cs), want)
		}
	}
}

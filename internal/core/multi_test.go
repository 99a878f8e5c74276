package core

import (
	"fmt"
	"reflect"
	"testing"

	"edcache/internal/bench"
	"edcache/internal/cache"
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
// must build only 2 distinct simulators per side. Members with a second
// level get slots of their own.
func TestGroupDedupSharesSimulators(t *testing.T) {
	base := MustNewSystem(PaperConfig(yield.ScenarioA, Baseline))
	prop := MustNewSystem(PaperConfig(yield.ScenarioA, Proposed))
	members := []GroupMember{
		{base, ModeHP}, {prop, ModeHP}, {base, ModeULE}, {prop, ModeULE},
	}
	mp := newMultiPort(members, true, make([]*cache.Cache, len(members)))
	defer mp.release()
	if len(mp.sims) != 2 {
		t.Fatalf("4-member design×mode group built %d simulators, want 2 (one per mode)", len(mp.sims))
	}
	if mp.slot[0] != mp.slot[1] || mp.slot[2] != mp.slot[3] || mp.slot[0] == mp.slot[2] {
		t.Fatalf("slot assignment %v, want designs sharing per mode", mp.slot)
	}
	// The EDC latency stays per logical member despite the shared slot.
	if mp.Member(2).ExtraHitLatency() != 0 || mp.Member(3).ExtraHitLatency() != 1 {
		t.Fatalf("ULE extra latencies = %d/%d, want 0 (baseline) and 1 (proposed)",
			mp.Member(2).ExtraHitLatency(), mp.Member(3).ExtraHitLatency())
	}
	// Gated configurations must not share with ungated ones.
	gatedCfg := PaperConfig(yield.ScenarioA, Baseline)
	gatedCfg.GateULEWaysAtHP = true
	gated := MustNewSystem(gatedCfg)
	mp2 := newMultiPort([]GroupMember{{base, ModeHP}, {gated, ModeHP}}, false, make([]*cache.Cache, 2))
	defer mp2.release()
	if len(mp2.sims) != 2 {
		t.Fatalf("gated and ungated HP members share a simulator (%d slots)", len(mp2.sims))
	}
	// A hierarchy member never shares, even with an identical L1.
	tiered := MustNewSystem(PaperConfig(yield.ScenarioA, Baseline).WithL2(testL2()))
	mp3 := newMultiPort([]GroupMember{{base, ModeHP}, {tiered, ModeHP}, {base, ModeHP}}, false,
		[]*cache.Cache{nil, tiered.newL2Sim(), nil})
	defer mp3.release()
	if len(mp3.sims) != 2 || mp3.slot[0] != mp3.slot[2] || mp3.slot[1] == mp3.slot[0] {
		t.Fatalf("hierarchy member slots %v over %d simulators, want its own slot", mp3.slot, len(mp3.sims))
	}
}

// TestSharedTallyMatchesAlone pins the shared tally: in the paper's
// 8-member scenario × mode × design group over a phase-annotated
// stream, the four members of each mode share one slot and one tally
// per side, and every member's Report — Phases included — must equal
// the member replayed alone, with Stats equal to the naive oracle's.
// Two members that share a slot but split their ways differently (ULE
// ways 1 vs 2, HP mode, no gating) must keep separate tallies.
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
	w, err := bench.ByName("phased_mix")
	if err != nil {
		t.Fatal(err)
	}
	w = w.ScaledTo(45_000)
	slab := bench.NewArenaCache().Get(w)
	for _, tc := range []struct {
		name    string
		members []GroupMember
		slots   int
		lead    []int // per member, on both sides
	}{
		{"paper group", paper, 2, []int{0, 0, 2, 2, 0, 0, 2, 2}},
		{"way split 7+1 vs 6+2", mixed, 1, []int{0, 1, 0}},
	} {
		for _, dside := range []bool{false, true} {
			mp := newMultiPort(tc.members, dside, make([]*cache.Cache, len(tc.members)))
			lead, slots := mp.lead, len(mp.sims)
			mp.release()
			if !reflect.DeepEqual(lead, tc.lead) || slots != tc.slots {
				t.Fatalf("%s (dside %v): tally leads %v over %d slots, want %v", tc.name, dside, lead, slots, tc.lead)
			}
		}
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

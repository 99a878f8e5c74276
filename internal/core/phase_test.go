package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"edcache/internal/bench"
	"edcache/internal/ecc"
	"edcache/internal/trace"
	"edcache/internal/yield"
)

// phasedWorkload returns phased_mix shortened so tests cycle all four
// regimes a few times.
func phasedWorkload(t *testing.T) bench.Workload {
	t.Helper()
	w, err := bench.ByName("phased_mix")
	if err != nil {
		t.Fatal(err)
	}
	w.PhaseInsts = 10_000
	return w.ScaledTo(80_000)
}

func TestRunReportsPerPhaseSegmentation(t *testing.T) {
	sys := MustNewSystem(PaperConfig(yield.ScenarioA, Proposed))
	rep, err := sys.Run(phasedWorkload(t), ModeHP)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Phases) != 4 {
		t.Fatalf("phase reports %d, want 4", len(rep.Phases))
	}

	// Integer counters must sum exactly to the run totals.
	var instr, cycles, dAcc, dMiss uint64
	for _, p := range rep.Phases {
		instr += p.Stats.Instructions
		cycles += p.Stats.Cycles
		dAcc += p.Stats.DAccesses
		dMiss += p.Stats.DMisses
	}
	if instr != rep.Stats.Instructions || cycles != rep.Stats.Cycles ||
		dAcc != rep.Stats.DAccesses || dMiss != rep.Stats.DMisses {
		t.Errorf("per-phase counters do not sum to run totals: instr %d/%d cycles %d/%d dacc %d/%d dmiss %d/%d",
			instr, rep.Stats.Instructions, cycles, rep.Stats.Cycles, dAcc, rep.Stats.DAccesses, dMiss, rep.Stats.DMisses)
	}

	// Energy and time sum to the run level within float tolerance.
	var energy, tm float64
	for _, p := range rep.Phases {
		energy += p.EPI.Total() * float64(p.Stats.Instructions)
		tm += p.TimeNS
	}
	total := rep.EPI.Total() * float64(rep.Stats.Instructions)
	if math.Abs(energy-total)/total > 1e-9 {
		t.Errorf("per-phase energy %.6g != run energy %.6g", energy, total)
	}
	if math.Abs(tm-rep.TimeNS)/rep.TimeNS > 1e-9 {
		t.Errorf("per-phase time %.6g != run time %.6g", tm, rep.TimeNS)
	}

	// The whole point: the regimes must actually differ. Phase 0 reuses
	// an eighth of the footprint, phase 3 walks all of it at random —
	// their DL1 miss rates and EPIs must separate.
	miss := func(p PhaseReport) float64 {
		return float64(p.Stats.DMisses) / float64(p.Stats.DAccesses)
	}
	if miss(rep.Phases[3]) < 2*miss(rep.Phases[0]) {
		t.Errorf("cold phase miss rate %.4f not well above hot phase %.4f", miss(rep.Phases[3]), miss(rep.Phases[0]))
	}
	if rep.Phases[3].EPI.Total() <= rep.Phases[0].EPI.Total() {
		t.Errorf("cold phase EPI %.2f not above hot phase %.2f", rep.Phases[3].EPI.Total(), rep.Phases[0].EPI.Total())
	}
}

func TestUnphasedRunHasNoPhaseReports(t *testing.T) {
	sys := MustNewSystem(PaperConfig(yield.ScenarioA, Baseline))
	w, err := bench.ByName("gsm_c")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Run(w.ScaledTo(20_000), ModeHP)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Phases != nil || rep.Stats.Phases != nil {
		t.Error("unphased workload produced phase reports")
	}
}

func TestRunStreamCaptureReplaysBitIdentically(t *testing.T) {
	// The capture-then-sweep contract (tracegen -phases, then -trace):
	// a generator stream written with WriteV2 replays through RunGroup
	// with bit-identical Stats to the live run — phase segmentation
	// included.
	sys := MustNewSystem(PaperConfig(yield.ScenarioB, Proposed))
	w := phasedWorkload(t)
	live, err := runOne(sys, w.Name, w.Stream(), ModeULE)
	if err != nil {
		t.Fatal(err)
	}
	if len(live.Phases) == 0 {
		t.Fatal("live run lost phase segmentation")
	}

	var sink bytes.Buffer
	if _, err := trace.WriteV2(&sink, w.Stream(), trace.V2Options{Compress: true, Phases: true}); err != nil {
		t.Fatal(err)
	}
	r, err := trace.NewReader(bytes.NewReader(sink.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !r.HasPhases() {
		t.Fatal("written file does not advertise phases")
	}
	replayed, err := runOne(sys, w.Name, r, ModeULE)
	if err != nil {
		t.Fatal(err)
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if !reflect.DeepEqual(live.Stats, replayed.Stats) {
		t.Errorf("replayed stats differ from live run:\nlive    %+v\nreplay  %+v", live.Stats, replayed.Stats)
	}
	if !reflect.DeepEqual(live.Phases, replayed.Phases) {
		t.Error("replayed phase reports differ from live run")
	}
}

func TestRunStreamCaptureUnphasedStream(t *testing.T) {
	// An unphased stream writes a phase-less container that replays
	// identically (and without a phase flag).
	sys := MustNewSystem(PaperConfig(yield.ScenarioA, Baseline))
	w, err := bench.ByName("adpcm_c")
	if err != nil {
		t.Fatal(err)
	}
	w = w.ScaledTo(15_000)
	live, err := runOne(sys, w.Name, w.Stream(), ModeULE)
	if err != nil {
		t.Fatal(err)
	}
	var sink bytes.Buffer
	if _, err := trace.WriteV2(&sink, w.Stream(), trace.V2Options{}); err != nil {
		t.Fatal(err)
	}
	r, err := trace.NewReader(bytes.NewReader(sink.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if r.HasPhases() {
		t.Error("unphased file advertised phases")
	}
	replayed, err := runOne(sys, w.Name, r, ModeULE)
	if err != nil {
		t.Fatal(err)
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if !reflect.DeepEqual(live.Stats, replayed.Stats) {
		t.Error("unphased replay not bit-identical")
	}
	if live.Phases != nil || replayed.Phases != nil {
		t.Error("unphased run produced phase reports")
	}
}

// phasedOracleInsts builds a stream that opens in phase outer, drops to
// inner and returns to outer, each run longer than a replay chunk, with
// loads, stores and branches over a footprint a few times the L1 so
// every phase fills, writes back and reaches the L2.
func phasedOracleInsts(outer, inner uint8) []trace.Inst {
	rng := rand.New(rand.NewSource(27))
	var insts []trace.Inst
	for seg, run := range []struct {
		phase uint8
		n     int
	}{{outer, 1500}, {inner, 2300}, {outer, 1700}} {
		for i := 0; i < run.n; i++ {
			inst := trace.Inst{PC: uint32(0x40000 + 4*rng.Intn(4096)), Phase: run.phase}
			addr := uint32(0x100000+seg*0x2000) + 4*uint32(rng.Intn(8192))
			switch rng.Intn(5) {
			case 0, 1:
				inst.IsLoad, inst.Addr, inst.UseDist = true, addr, uint8(rng.Intn(3))
			case 2:
				inst.IsStore, inst.Addr = true, addr
			case 3:
				inst.IsBranch, inst.Taken = true, rng.Intn(2) == 0
			}
			insts = append(insts, inst)
		}
	}
	return insts
}

// oracleGroups returns the paper's 8-member scenario × mode × design
// group and a hier-epi-shaped 6-member group (2 L2 geometries × 3
// protections).
func oracleGroups() (paper, hier []GroupMember) {
	for _, sc := range []yield.Scenario{yield.ScenarioA, yield.ScenarioB} {
		base := MustNewSystem(PaperConfig(sc, Baseline))
		prop := MustNewSystem(PaperConfig(sc, Proposed))
		for _, m := range []Mode{ModeHP, ModeULE} {
			paper = append(paper, GroupMember{base, m}, GroupMember{prop, m})
		}
	}
	for _, g := range [][2]int{{128, 8}, {512, 8}} {
		for _, prot := range []ecc.Kind{ecc.KindNone, ecc.KindSECDED, ecc.KindDECTED} {
			hier = append(hier, GroupMember{MustNewSystem(PaperConfig(yield.ScenarioA, Proposed).WithL2(L2Config{
				Sets: g[0], Ways: g[1], LineBytes: 32, Latency: 6, Protection: prot})), ModeHP})
		}
	}
	return paper, hier
}

// TestPhaseEnergyMatchesNaiveOracle holds every member's per-phase and
// run-level energy to the naive oracle's own event counts: the paper's
// 8-member group (whose members share tallies) and the hier-epi-shaped
// 6-member group (per-phase L2 counts) over phased_mix, and both groups
// over hand-built streams that open in phase 2, drop to 0 and return
// to 2, and that open in phase 255, drop to 3 and return to 255 — ids
// far apart, the first one past every id the stream later carries.
func TestPhaseEnergyMatchesNaiveOracle(t *testing.T) {
	paper, hier := oracleGroups()
	mp := newMultiPort(paper, planGroup(paper), false)
	defer mp.release()
	if len(mp.l1) != 2 {
		t.Fatalf("paper group keeps %d L1 tallies per side, want 2 shared by its 8 members", len(mp.l1))
	}
	w, err := bench.ByName("phased_mix")
	if err != nil {
		t.Fatal(err)
	}
	w = w.ScaledTo(45_000)
	mix := collect(w.Stream())
	hand := phasedOracleInsts(2, 0)
	sparse := phasedOracleInsts(255, 3)
	for _, tc := range []struct {
		name    string
		members []GroupMember
		insts   []trace.Inst
		ids     []uint8 // when set, the phase ids every report must list
	}{
		{"paper group/phased_mix", paper, mix, nil},
		{"hier group/phased_mix", hier, mix, nil},
		{"paper group/2-0-2", paper, hand, nil},
		{"hier group/2-0-2", hier, hand, nil},
		{"paper group/255-3-255", paper, sparse, []uint8{3, 255}},
		{"hier group/255-3-255", hier, sparse, []uint8{3, 255}},
	} {
		got, err := RunGroup(tc.name, &trace.SliceStream{Insts: tc.insts}, tc.members)
		if err != nil {
			t.Fatal(err)
		}
		for k, gm := range tc.members {
			label := fmt.Sprintf("%s member %d (%s/%v)", tc.name, k, gm.Sys.Config().Name(), gm.Mode)
			if len(got[k].Phases) < 2 {
				t.Fatalf("%s: %d phase segments, want a phase boundary", label, len(got[k].Phases))
			}
			checkEnergyOracle(t, label, got[k], gm, tc.insts)
			if tc.ids != nil {
				checkPhaseIDs(t, label, got[k], tc.ids)
			}
			if gm.Sys.cfg.L2 != nil {
				for _, pr := range got[k].Phases {
					if pr.Levels[1].Accesses == 0 {
						t.Fatalf("%s phase %d: no L2 traffic", label, pr.Phase)
					}
				}
			}
		}
	}
}

// checkPhaseIDs requires a report's Stats segments and phase reports to
// list exactly ids, in that order.
func checkPhaseIDs(t *testing.T, label string, rep Report, ids []uint8) {
	t.Helper()
	var stats, reports []uint8
	for _, seg := range rep.Stats.Phases {
		stats = append(stats, seg.Phase)
	}
	for _, pr := range rep.Phases {
		reports = append(reports, pr.Phase)
	}
	if !reflect.DeepEqual(stats, ids) || !reflect.DeepEqual(reports, ids) {
		t.Errorf("%s: segment ids %v, phase report ids %v; want %v", label, stats, reports, ids)
	}
}

// annotated advertises phase ids on a slice stream whose ids may all be
// 0, which SliceStream's own scan would report as unannotated.
type annotated struct{ trace.SliceStream }

func (*annotated) HasPhases() bool { return true }

// TestAnnotatedPhaseZeroStreamHasOneSegment replays an annotated stream
// that never leaves phase 0: every member must report exactly one
// segment, phase 0, equal to the run and to the naive oracle.
func TestAnnotatedPhaseZeroStreamHasOneSegment(t *testing.T) {
	paper, hier := oracleGroups()
	insts := phasedOracleInsts(0, 0)
	for _, tc := range []struct {
		name    string
		members []GroupMember
	}{{"paper group/0", paper}, {"hier group/0", hier}} {
		got, err := RunGroup(tc.name, &annotated{trace.SliceStream{Insts: insts}}, tc.members)
		if err != nil {
			t.Fatal(err)
		}
		for k, gm := range tc.members {
			label := fmt.Sprintf("%s member %d (%s/%v)", tc.name, k, gm.Sys.Config().Name(), gm.Mode)
			checkPhaseIDs(t, label, got[k], []uint8{0})
			checkEnergyOracle(t, label, got[k], gm, insts)
			if pr := got[k].Phases[0]; pr.EPI != got[k].EPI || !reflect.DeepEqual(pr.Levels, got[k].Levels) {
				t.Errorf("%s: the one phase's energy %+v %+v differs from the run's %+v %+v",
					label, pr.EPI, pr.Levels, got[k].EPI, got[k].Levels)
			}
		}
	}
}

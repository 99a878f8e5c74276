package core

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"edcache/internal/bench"
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

package core

import (
	"reflect"
	"testing"

	"edcache/internal/bench"
	"edcache/internal/yield"
)

// TestRunArenaBitIdenticalToRun is the decode-once determinism
// contract at the System level: replaying a shared slab (RunGroupArena)
// must produce a Report — counters, cycles, per-phase segmentation,
// energy — that is bit-identical to regenerating the workload (Run),
// for a plain, a dependent-load and a phase-annotated workload, in both
// modes.
func TestRunArenaBitIdenticalToRun(t *testing.T) {
	sys := MustNewSystem(PaperConfig(yield.ScenarioA, Proposed))
	arenas := bench.NewArenaCache()
	for _, name := range []string{"gsm_c", "ptrchase_s", "phased_mix"} {
		w, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		w = w.ScaledTo(10_000)
		for _, m := range []Mode{ModeHP, ModeULE} {
			gen, err := sys.Run(w, m)
			if err != nil {
				t.Fatal(err)
			}
			reps, err := RunGroupArena(w.Name, arenas.Get(w), []GroupMember{{sys, m}})
			if err != nil {
				t.Fatal(err)
			}
			arena := reps[0]
			if !reflect.DeepEqual(gen, arena) {
				t.Errorf("%s at %v: arena-backed Report diverges from generator-backed", name, m)
			}
			if name == "phased_mix" && len(arena.Phases) == 0 {
				t.Errorf("%s at %v: arena replay lost the per-phase segmentation", name, m)
			}
		}
	}
}

// TestRunPairsArenaMatchesRunPairsN pins the fan-out entry point:
// Pairs over shared slabs equal Pairs over generator streams for every
// worker count.
func TestRunPairsArenaMatchesRunPairsN(t *testing.T) {
	ws := bench.Small()
	for i := range ws {
		ws[i] = ws[i].ScaledTo(5_000)
	}
	want, err := Pairs(yield.ScenarioB, ModeULE, ws, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	arenas := bench.NewArenaCache()
	for _, workers := range []int{1, 8} {
		got, err := Pairs(yield.ScenarioB, ModeULE, ws, arenas, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: arena-backed pairs diverge from generator pairs", workers)
		}
	}
}

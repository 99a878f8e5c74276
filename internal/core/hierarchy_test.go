package core

import (
	"math"
	"reflect"
	"testing"

	"edcache/internal/bench"
	"edcache/internal/ecc"
	"edcache/internal/trace"
	"edcache/internal/yield"
)

// testL2 is a mid-sized second level behind the paper's 8 KB L1s.
func testL2() L2Config {
	return L2Config{Sets: 128, Ways: 8, LineBytes: 32, Latency: 6, Protection: ecc.KindSECDED}
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

// TestHierarchyLevelsSumToEPI checks the per-level split is a true
// partition: the L1 and L2 rows sum back to the breakdown's cache
// terms, and the per-level stall times sum to MissCycles' wall time.
func TestHierarchyLevelsSumToEPI(t *testing.T) {
	sys := MustNewSystem(PaperConfig(yield.ScenarioA, Proposed).WithL2(testL2()))
	w, err := bench.ByName("gsm_c")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Run(w.ScaledTo(40_000), ModeHP)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Levels) != 2 || rep.Levels[0].Level != "L1" || rep.Levels[1].Level != "L2" {
		t.Fatalf("levels = %+v, want [L1 L2]", rep.Levels)
	}
	l1, l2 := rep.Levels[0], rep.Levels[1]
	if d := relDiff(l1.Dynamic+l2.Dynamic, rep.EPI.CacheDynamic); d > 1e-12 {
		t.Errorf("dynamic split off by %g", d)
	}
	if d := relDiff(l1.Leakage+l2.Leakage, rep.EPI.CacheLeakage); d > 1e-12 {
		t.Errorf("leakage split off by %g", d)
	}
	if d := relDiff(l1.EDC+l2.EDC, rep.EPI.EDC); d > 1e-12 {
		t.Errorf("EDC split off by %g", d)
	}
	wantStall := float64(rep.Stats.MissCycles) / sys.cfg.FreqGHz(ModeHP)
	if d := relDiff(l1.StallNS+l2.StallNS, wantStall); d > 1e-12 {
		t.Errorf("stall split %g+%g != %g", l1.StallNS, l2.StallNS, wantStall)
	}
	// L2 traffic is demand reads (≤ L1 misses) plus write-backs (≤ one
	// per demand fill), so it can never exceed twice the L1 miss count.
	if l1.Accesses == 0 || l2.Accesses == 0 || l2.Accesses > 2*l1.Misses {
		t.Errorf("implausible traffic: %+v", rep.Levels)
	}
	if l2.Misses == 0 || l2.Misses > l2.Accesses {
		t.Errorf("implausible L2 misses: %+v", l2)
	}
	if rep.Stats.IL2Misses+rep.Stats.DL2Misses != l2.Misses {
		t.Errorf("L2 row misses %d != stats %d+%d", l2.Misses, rep.Stats.IL2Misses, rep.Stats.DL2Misses)
	}
}

// TestSingleLevelUnchangedByL2Field pins bit-identity of the existing
// platform: a nil L2 produces a report with no Levels and exactly the
// stats/energy of the pre-hierarchy code path (IL2/DL2 counters zero).
func TestSingleLevelUnchangedByL2Field(t *testing.T) {
	sys := MustNewSystem(PaperConfig(yield.ScenarioB, Proposed))
	w, err := bench.ByName("ptrchase_l")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Run(w.ScaledTo(20_000), ModeHP)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Levels != nil {
		t.Errorf("single-level run grew Levels: %+v", rep.Levels)
	}
	if rep.Stats.IL2Misses != 0 || rep.Stats.DL2Misses != 0 {
		t.Errorf("single-level run counted L2 misses: %+v", rep.Stats)
	}
}

// TestHierarchyReducesMissCost checks the L2 earns its keep on a
// working set that spills the L1 but fits the L2: most L1 misses hit
// the L2 (6 cycles) instead of memory (20), so the hierarchy run must
// spend fewer miss cycles than the single-level run at equal L1 misses.
func TestHierarchyReducesMissCost(t *testing.T) {
	cfg := PaperConfig(yield.ScenarioA, Baseline)
	flat := MustNewSystem(cfg)
	tiered := MustNewSystem(cfg.WithL2(testL2()))
	w, err := bench.ByName("adversarial_l1")
	if err != nil {
		t.Fatal(err)
	}
	w = w.ScaledTo(40_000)
	a, err := flat.Run(w, ModeHP)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tiered.Run(w, ModeHP)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats.IMisses != b.Stats.IMisses || a.Stats.DMisses != b.Stats.DMisses {
		t.Fatalf("L1 behaviour diverged: %+v vs %+v", a.Stats, b.Stats)
	}
	if b.Stats.MissCycles >= a.Stats.MissCycles {
		t.Errorf("L2 did not reduce miss cycles: %d vs flat %d", b.Stats.MissCycles, a.Stats.MissCycles)
	}
	// Exact tiered pricing: every L1 miss costs the L2 latency, every
	// demand fill that misses the L2 adds the full memory latency.
	l1m := b.Stats.IMisses + b.Stats.DMisses
	l2m := b.Stats.IL2Misses + b.Stats.DL2Misses
	want := l1m*uint64(testL2().Latency) + l2m*uint64(cfg.MemLatency)
	if b.Stats.MissCycles != want {
		t.Errorf("miss cycles %d, want %d (%d L1 misses, %d L2 misses)", b.Stats.MissCycles, want, l1m, l2m)
	}
}

// TestHierarchyPhaseLevelsSum checks the per-phase per-level rows are a
// double partition: each phase's Levels sum to its own EPI cache terms,
// and across phases each level's raw energies sum to the run-level row.
func TestHierarchyPhaseLevelsSum(t *testing.T) {
	sys := MustNewSystem(PaperConfig(yield.ScenarioA, Proposed).WithL2(testL2()))
	rep, err := sys.Run(phasedWorkload(t), ModeHP)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Phases) == 0 {
		t.Fatal("phased workload produced no phase reports")
	}
	sum := make([]LevelEPI, 2)
	for _, ph := range rep.Phases {
		if len(ph.Levels) != 2 {
			t.Fatalf("phase %d has %d levels", ph.Phase, len(ph.Levels))
		}
		for i, lv := range ph.Levels {
			if d := relDiff(lv.Dynamic+lv.Leakage+lv.EDC, lv.EPI()); d > 1e-12 {
				t.Errorf("phase %d level %s EPI() inconsistent", ph.Phase, lv.Level)
			}
			instr := float64(ph.Stats.Instructions)
			sum[i].Dynamic += lv.Dynamic * instr
			sum[i].Leakage += lv.Leakage * instr
			sum[i].EDC += lv.EDC * instr
			sum[i].Accesses += lv.Accesses
			sum[i].Misses += lv.Misses
			sum[i].StallNS += lv.StallNS
		}
	}
	instr := float64(rep.Stats.Instructions)
	for i, lv := range rep.Levels {
		if sum[i].Accesses != lv.Accesses || sum[i].Misses != lv.Misses {
			t.Errorf("level %s traffic: phases sum to %d/%d, run has %d/%d",
				lv.Level, sum[i].Accesses, sum[i].Misses, lv.Accesses, lv.Misses)
		}
		if d := relDiff(sum[i].Dynamic, lv.Dynamic*instr); d > 1e-9 {
			t.Errorf("level %s dynamic off by %g", lv.Level, d)
		}
		if d := relDiff(sum[i].EDC, lv.EDC*instr); d > 1e-9 {
			t.Errorf("level %s EDC off by %g", lv.Level, d)
		}
		if d := relDiff(sum[i].StallNS, lv.StallNS); d > 1e-9 {
			t.Errorf("level %s stall off by %g", lv.Level, d)
		}
	}
}

// TestRunSharedReports checks the core-level shared-L2 runner: reports
// carry the right names, deterministic counters across identical calls,
// live per-level rows, and validation of the degenerate inputs.
func TestRunSharedReports(t *testing.T) {
	cfg := PaperConfig(yield.ScenarioA, Baseline).WithL2(L2Config{
		Sets: 16, Ways: 2, LineBytes: 32, Latency: 6, Protection: ecc.KindNone})
	sys := MustNewSystem(cfg)
	ws := bench.Small()
	if len(ws) < 2 {
		t.Fatal("need two workloads")
	}
	w0, w1 := ws[0].ScaledTo(25_000), ws[1].ScaledTo(30_000)
	run := func() []Report {
		reps, err := sys.RunShared(
			[]string{w0.Name, w1.Name},
			[]trace.Stream{w0.Stream(), w1.Stream()}, ModeHP)
		if err != nil {
			t.Fatal(err)
		}
		return reps
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("shared-L2 reports not deterministic")
	}
	for i, rep := range a {
		if rep.Workload != []string{w0.Name, w1.Name}[i] {
			t.Errorf("report %d carries workload %q", i, rep.Workload)
		}
		if len(rep.Levels) != 2 || rep.Levels[1].Accesses == 0 {
			t.Errorf("report %d missing live levels: %+v", i, rep.Levels)
		}
	}

	flat := MustNewSystem(PaperConfig(yield.ScenarioA, Baseline))
	if _, err := flat.RunShared([]string{"x"}, []trace.Stream{w0.Stream()}, ModeHP); err == nil {
		t.Error("RunShared without an L2 accepted")
	}
	if _, err := sys.RunShared(nil, nil, ModeHP); err == nil {
		t.Error("empty stream list accepted")
	}
	if _, err := sys.RunShared([]string{"a"}, []trace.Stream{w0.Stream(), w1.Stream()}, ModeHP); err == nil {
		t.Error("name/stream count mismatch accepted")
	}
}

// TestL2ConfigValidate exercises the geometry/policy gate.
func TestL2ConfigValidate(t *testing.T) {
	base := PaperConfig(yield.ScenarioA, Baseline)
	bad := []L2Config{
		{Sets: 0, Ways: 8, LineBytes: 32, Latency: 6},
		{Sets: 24, Ways: 8, LineBytes: 32, Latency: 6},
		{Sets: 128, Ways: 0, LineBytes: 32, Latency: 6},
		{Sets: 128, Ways: 65, LineBytes: 32, Latency: 6},
		{Sets: 128, Ways: 8, LineBytes: 64, Latency: 6},
		{Sets: 128, Ways: 8, LineBytes: 32, Latency: 0},
		{Sets: 128, Ways: 8, LineBytes: 32, Latency: 6, EnabledWays: 9},
		{Sets: 128, Ways: 8, LineBytes: 32, Latency: 6, Protection: ecc.Kind(99)},
	}
	for i, l2 := range bad {
		if err := base.WithL2(l2).Validate(); err == nil {
			t.Errorf("bad L2 config %d accepted: %+v", i, l2)
		}
	}
	good := base.WithL2(L2Config{Sets: 128, Ways: 8, LineBytes: 32, Latency: 6,
		EnabledWays: 4, Protection: ecc.KindDECTED})
	if err := good.Validate(); err != nil {
		t.Errorf("good L2 config rejected: %v", err)
	}
}

// TestHierarchyEnabledWaysAndProtection checks the per-level policies
// bite: capping the L2's enabled ways raises its misses on a thrashing
// workload, and SECDED protection adds codec energy relative to none.
func TestHierarchyEnabledWaysAndProtection(t *testing.T) {
	base := PaperConfig(yield.ScenarioA, Baseline)
	w, err := bench.ByName("adversarial_l1")
	if err != nil {
		t.Fatal(err)
	}
	w = w.ScaledTo(30_000)
	run := func(l2 L2Config) Report {
		rep, err := MustNewSystem(base.WithL2(l2)).Run(w, ModeHP)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	full := run(L2Config{Sets: 32, Ways: 8, LineBytes: 32, Latency: 6})
	capped := run(L2Config{Sets: 32, Ways: 8, LineBytes: 32, Latency: 6, EnabledWays: 1})
	if capped.Levels[1].Misses <= full.Levels[1].Misses {
		t.Errorf("way cap did not raise L2 misses: %d vs %d",
			capped.Levels[1].Misses, full.Levels[1].Misses)
	}
	plain := run(L2Config{Sets: 128, Ways: 8, LineBytes: 32, Latency: 6})
	coded := run(L2Config{Sets: 128, Ways: 8, LineBytes: 32, Latency: 6, Protection: ecc.KindSECDED})
	if plain.Levels[1].EDC != 0 {
		t.Errorf("unprotected L2 charged codec energy %g", plain.Levels[1].EDC)
	}
	if coded.Levels[1].EDC <= 0 {
		t.Errorf("SECDED L2 charged no codec energy")
	}
	if coded.Levels[1].Dynamic <= plain.Levels[1].Dynamic {
		t.Errorf("check bits did not widen L2 array energy: %g vs %g",
			coded.Levels[1].Dynamic, plain.Levels[1].Dynamic)
	}
}

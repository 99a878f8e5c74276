package core

import (
	"testing"

	"edcache/internal/bench"
	"edcache/internal/yield"
)

// shortSuite trims workloads for test runtime.
func shortSuite(ws []bench.Workload, n int) []bench.Workload {
	out := make([]bench.Workload, len(ws))
	for i, w := range ws {
		out[i] = w.ScaledTo(n)
	}
	return out
}

// TestHeadlineNumbers is experiment E3: the paper's quoted averages.
//
//	HP mode:  14 % (A) and 12 % (B) EPI savings, no performance loss.
//	ULE mode: 42 % (A) and 39 % (B) EPI savings, ~3 % slower execution.
//
// Absolute fidelity is not expected from a reimplemented stack; the
// asserted bands keep the paper's shape: double-digit HP savings, ~40 %
// ULE savings, scenario A ≥ scenario B, slowdown only at ULE and small.
func TestHeadlineNumbers(t *testing.T) {
	type band struct{ lo, hi float64 }
	expect := map[yield.Scenario]map[Mode]band{
		yield.ScenarioA: {ModeHP: {10, 19}, ModeULE: {36, 48}},
		yield.ScenarioB: {ModeHP: {9, 18}, ModeULE: {33, 45}},
	}
	savings := map[yield.Scenario]map[Mode]float64{}
	for _, s := range []yield.Scenario{yield.ScenarioA, yield.ScenarioB} {
		savings[s] = map[Mode]float64{}
		for _, m := range []Mode{ModeHP, ModeULE} {
			pairs, err := Pairs(s, m, shortSuite(PaperModeWorkloads(m), 120000), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			sum := Summarize(s, m, pairs)
			savings[s][m] = sum.AvgSavingPct
			b := expect[s][m]
			if sum.AvgSavingPct < b.lo || sum.AvgSavingPct > b.hi {
				t.Errorf("scenario %v at %v: saving %.1f%% outside [%.0f, %.0f]",
					s, m, sum.AvgSavingPct, b.lo, b.hi)
			}
			switch m {
			case ModeHP:
				if sum.AvgTimeIncreasePct != 0 {
					t.Errorf("scenario %v: HP-mode slowdown %.2f%%, want exactly 0",
						s, sum.AvgTimeIncreasePct)
				}
			case ModeULE:
				if sum.AvgTimeIncreasePct < 0.5 || sum.AvgTimeIncreasePct > 6 {
					t.Errorf("scenario %v: ULE slowdown %.2f%%, want ≈3%%",
						s, sum.AvgTimeIncreasePct)
				}
			}
		}
	}
	// ULE savings must dwarf HP savings (the paper's main contrast).
	for _, s := range []yield.Scenario{yield.ScenarioA, yield.ScenarioB} {
		if savings[s][ModeULE] < 2*savings[s][ModeHP] {
			t.Errorf("scenario %v: ULE saving %.1f%% not ≫ HP saving %.1f%%",
				s, savings[s][ModeULE], savings[s][ModeHP])
		}
	}
	// Scenario A saves at least as much as scenario B in both modes.
	for _, m := range []Mode{ModeHP, ModeULE} {
		if savings[yield.ScenarioA][m] < savings[yield.ScenarioB][m]-0.5 {
			t.Errorf("at %v: scenario A saving %.1f%% below scenario B %.1f%%",
				m, savings[yield.ScenarioA][m], savings[yield.ScenarioB][m])
		}
	}
}

func TestEPIBreakdownShapes(t *testing.T) {
	pairs, err := Pairs(yield.ScenarioA, ModeULE, shortSuite(bench.Small(), 80000), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		// Caches dominate EPI in these chips (paper Section IV-B).
		cacheShare := (p.Base.EPI.CacheDynamic + p.Base.EPI.CacheLeakage) / p.Base.EPI.Total()
		if cacheShare < 0.5 {
			t.Errorf("%s: baseline cache share %.2f < 0.5", p.Workload, cacheShare)
		}
		// At ULE mode leakage is the dominant cache component.
		if p.Base.EPI.CacheLeakage <= p.Base.EPI.CacheDynamic {
			t.Errorf("%s: ULE leakage %.3f not above dynamic %.3f",
				p.Workload, p.Base.EPI.CacheLeakage, p.Base.EPI.CacheDynamic)
		}
		// Baseline scenario A has no EDC energy; proposed does.
		if p.Base.EPI.EDC != 0 {
			t.Errorf("%s: scenario A baseline charged EDC energy", p.Workload)
		}
		if p.Prop.EPI.EDC <= 0 {
			t.Errorf("%s: proposed missing EDC energy", p.Workload)
		}
		// EDC stays second-order (paper: small overhead).
		if p.Prop.EPI.EDC > 0.1*p.Prop.EPI.Total() {
			t.Errorf("%s: EDC share %.2f too large", p.Workload, p.Prop.EPI.EDC/p.Prop.EPI.Total())
		}
	}
}

func TestBenchmarksBehaveSimilarly(t *testing.T) {
	// Paper: "All benchmarks show minor differences to the average" —
	// per-benchmark savings cluster within a few points of the mean.
	pairs, err := Pairs(yield.ScenarioA, ModeHP, shortSuite(bench.Big(), 80000), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	sum := Summarize(yield.ScenarioA, ModeHP, pairs)
	for _, p := range pairs {
		if d := p.SavingPct() - sum.AvgSavingPct; d > 6 || d < -6 {
			t.Errorf("%s: saving %.1f%% deviates %.1f points from average %.1f%%",
				p.Workload, p.SavingPct(), d, sum.AvgSavingPct)
		}
	}
}

func TestNormalizedBreakdownsSumCorrectly(t *testing.T) {
	pairs, err := Pairs(yield.ScenarioB, ModeULE, shortSuite(bench.Small()[:1], 40000), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := pairs[0]
	nb := p.NormalizedBase()
	if tot := nb.Total(); tot < 0.999 || tot > 1.001 {
		t.Errorf("normalized baseline total %.4f, want 1", tot)
	}
	np := p.NormalizedProp()
	want := p.Prop.EPI.Total() / p.Base.EPI.Total()
	if tot := np.Total(); tot < want-1e-9 || tot > want+1e-9 {
		t.Errorf("normalized proposed total %.4f, want %.4f", tot, want)
	}
	if 100*(1-np.Total()) < 30 {
		t.Errorf("scenario B ULE saving %.1f%% too small", 100*(1-np.Total()))
	}
}

func TestSummarizeEmptyPairs(t *testing.T) {
	sum := Summarize(yield.ScenarioA, ModeHP, nil)
	if sum.AvgSavingPct != 0 || sum.AvgBase.Total() != 0 {
		t.Error("empty summary must be zero-valued")
	}
}

func TestWaySplitAblation(t *testing.T) {
	// Paper §IV-A: "We have considered other designs (e.g., 6+2), but
	// they did not provide further insights." A 6+2 split must still
	// show proposed wins at ULE mode.
	cfgB := PaperConfig(yield.ScenarioA, Baseline)
	cfgB.ULEWays = 2
	cfgP := PaperConfig(yield.ScenarioA, Proposed)
	cfgP.ULEWays = 2
	base := MustNewSystem(cfgB)
	prop := MustNewSystem(cfgP)
	w, err := bench.ByName("adpcm_c")
	if err != nil {
		t.Fatal(err)
	}
	w = w.ScaledTo(60000)
	rb, err := base.Run(w, ModeULE)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := prop.Run(w, ModeULE)
	if err != nil {
		t.Fatal(err)
	}
	if rp.EPI.Total() >= rb.EPI.Total() {
		t.Errorf("6+2 split: proposed EPI %.3f ≥ baseline %.3f", rp.EPI.Total(), rb.EPI.Total())
	}
}

func TestMemLatencyDoesNotChangeTrends(t *testing.T) {
	// Paper §IV-A: "other memory latencies do not change the trends".
	w, err := bench.ByName("gsm_c")
	if err != nil {
		t.Fatal(err)
	}
	w = w.ScaledTo(60000)
	prev := -1.0
	for _, lat := range []int{10, 20, 40, 80} {
		cfgB := PaperConfig(yield.ScenarioA, Baseline)
		cfgB.MemLatency = lat
		cfgP := PaperConfig(yield.ScenarioA, Proposed)
		cfgP.MemLatency = lat
		rb, err := MustNewSystem(cfgB).Run(w, ModeHP)
		if err != nil {
			t.Fatal(err)
		}
		rp, err := MustNewSystem(cfgP).Run(w, ModeHP)
		if err != nil {
			t.Fatal(err)
		}
		saving := 1 - rp.EPI.Total()/rb.EPI.Total()
		if saving <= 0.05 {
			t.Errorf("latency %d: saving %.3f collapsed", lat, saving)
		}
		if prev > 0 && (saving/prev > 1.5 || saving/prev < 0.66) {
			t.Errorf("latency %d: saving %.3f deviates wildly from previous %.3f", lat, saving, prev)
		}
		prev = saving
	}
}

func TestGateULEWaysAtHPAblation(t *testing.T) {
	// Ablation A5 (Section III-A): gating the ULE way at HP mode must
	// increase misses and execution time for a workload that needs the
	// full cache, while the paper's reuse policy keeps the capacity.
	w, err := bench.ByName("mpeg2_c")
	if err != nil {
		t.Fatal(err)
	}
	w = w.ScaledTo(80000)
	reuse := PaperConfig(yield.ScenarioA, Proposed)
	gated := PaperConfig(yield.ScenarioA, Proposed)
	gated.GateULEWaysAtHP = true
	rr, err := MustNewSystem(reuse).Run(w, ModeHP)
	if err != nil {
		t.Fatal(err)
	}
	rg, err := MustNewSystem(gated).Run(w, ModeHP)
	if err != nil {
		t.Fatal(err)
	}
	if rg.Stats.DMisses <= rr.Stats.DMisses {
		t.Errorf("gated DL1 misses %d not above reuse %d", rg.Stats.DMisses, rr.Stats.DMisses)
	}
	if rg.TimeNS <= rr.TimeNS {
		t.Errorf("gated time %.0f not above reuse %.0f", rg.TimeNS, rr.TimeNS)
	}
	// The gated config must not spend ULE-way lookup energy at HP.
	if rg.EPI.CacheDynamic >= rr.EPI.CacheDynamic {
		t.Errorf("gated cache dynamic EPI %.3f not below reuse %.3f",
			rg.EPI.CacheDynamic, rr.EPI.CacheDynamic)
	}
	// ULE mode is unaffected by the HP-mode policy flag.
	small, err := bench.ByName("adpcm_c")
	if err != nil {
		t.Fatal(err)
	}
	small = small.ScaledTo(40000)
	ur, err := MustNewSystem(reuse).Run(small, ModeULE)
	if err != nil {
		t.Fatal(err)
	}
	ug, err := MustNewSystem(gated).Run(small, ModeULE)
	if err != nil {
		t.Fatal(err)
	}
	if ur.EPI.Total() != ug.EPI.Total() || ur.Stats.Cycles != ug.Stats.Cycles {
		t.Error("HP-mode gating flag leaked into ULE-mode behaviour")
	}
}

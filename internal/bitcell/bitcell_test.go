package bitcell

import (
	"math"
	"testing"
	"testing/quick"
)

const (
	vHP  = 1.0
	vULE = 0.35
)

func TestTopologyStrings(t *testing.T) {
	if T6.String() != "6T" || T8.String() != "8T" || T10.String() != "10T" {
		t.Errorf("topology names: %v %v %v", T6, T8, T10)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(T8, 0.5); err == nil {
		t.Error("size below minimum should be rejected")
	}
	if _, err := New(T8, MaxSizeFactor+1); err == nil {
		t.Error("size above maximum should be rejected")
	}
	if _, err := New(Topology(42), 1.0); err == nil {
		t.Error("unknown topology should be rejected")
	}
	if c, err := New(T10, 2.5); err != nil || c.Topo != T10 {
		t.Errorf("valid cell rejected: %v", err)
	}
}

func TestQFuncBasics(t *testing.T) {
	if got := QFunc(0); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Q(0) = %g, want 0.5", got)
	}
	// Standard values.
	cases := map[float64]float64{
		1.0:  0.158655,
		2.0:  0.022750,
		3.0:  1.3499e-3,
		4.71: 1.2386e-6,
	}
	for x, want := range cases {
		if got := QFunc(x); math.Abs(got-want)/want > 2e-3 {
			t.Errorf("Q(%g) = %g, want ≈ %g", x, got, want)
		}
	}
}

func TestFailureProbMonotoneInVoltage(t *testing.T) {
	for _, topo := range []Topology{T6, T8, T10} {
		c := MustNew(topo, 1.5)
		prev := math.Inf(1)
		for v := 0.25; v <= 1.05; v += 0.05 {
			pf := c.FailureProb(v)
			if pf > prev*(1+1e-12) {
				t.Errorf("%v: Pf increased with voltage at %.2f V (%.3g -> %.3g)", topo, v, prev, pf)
			}
			prev = pf
		}
	}
}

func TestFailureProbMonotoneInSize(t *testing.T) {
	for _, topo := range []Topology{T6, T8, T10} {
		prev := math.Inf(1)
		for s := 1.0; s <= 4.0; s += 0.25 {
			pf := Cell{Topo: topo, Size: s}.FailureProb(vULE)
			if pf > prev*(1+1e-12) {
				t.Errorf("%v: Pf increased with size at x%.2f", topo, s)
			}
			prev = pf
		}
	}
}

func TestPaperCalibrationPoints(t *testing.T) {
	// The paper's 99 %-yield example requires Pf = 1.22e-6.
	const targetPf = 1.22e-6

	// 6T at HP voltage meets the target at minimum size — the paper's
	// design point for HP ways.
	c6, ok := SizeFor(T6, vHP, targetPf)
	if !ok {
		t.Fatal("6T cannot meet Pf target at 1 V")
	}
	if c6.Size != 1.0 {
		t.Errorf("6T HP size = %.2f, want 1.0 (minimum)", c6.Size)
	}

	// 6T at 350 mV is catastrophically broken (margins collapse): this
	// is why HP ways must be gated off at ULE mode.
	if pf := c6.FailureProb(vULE); pf < 0.01 {
		t.Errorf("6T at 350 mV: Pf = %.3g, expected massive failure rate", pf)
	}

	// 10T must be upsized substantially (≈2.2–3.2×) to be fault-free at
	// 350 mV — the baseline's area/energy problem the paper attacks.
	c10, ok := SizeFor(T10, vULE, targetPf)
	if !ok {
		t.Fatal("10T cannot meet Pf target at 350 mV")
	}
	if c10.Size < 2.2 || c10.Size > 3.2 {
		t.Errorf("10T ULE size = %.2f, want within [2.2, 3.2]", c10.Size)
	}

	// Plain 8T can NEVER be fault-free at 350 mV: its failure floor
	// exceeds the target at any size. This is the paper's justification
	// for EDC ("Simply decreasing the size ... would increase failure
	// rates ... Faulty entries should be then disabled").
	if _, ok := SizeFor(T8, vULE, targetPf); ok {
		t.Error("plain 8T met the fault-free target at 350 mV; the EDC motivation requires it cannot")
	}
	if floor := (Cell{Topo: T8, Size: 1}).FailureFloor(vULE); floor <= targetPf {
		t.Errorf("8T floor at 350 mV = %.3g, want > %.3g", floor, targetPf)
	}

	// With the relaxed per-bit budget SECDED buys (tolerating one hard
	// fault per 39-bit word puts the requirement near 1.3e-4 for the
	// paper's way), 8T sizes to a modest 1.1–1.5× — far smaller than
	// the 10T cell.
	c8, ok := SizeFor(T8, vULE, 1.3e-4)
	if !ok {
		t.Fatal("8T cannot meet the SECDED-relaxed target at 350 mV")
	}
	if c8.Size < 1.0 || c8.Size > 1.5 {
		t.Errorf("8T ULE size = %.2f, want within [1.0, 1.5]", c8.Size)
	}

	// Both ULE-capable cells are orders of magnitude more reliable than
	// 6T at high voltage (paper Section III-B).
	for _, c := range []Cell{c8, c10} {
		if pf := c.FailureProb(vHP); pf > c6.FailureProb(vHP)/100 {
			t.Errorf("%v at 1 V: Pf = %.3g, want ≪ 6T's %.3g", c, pf, c6.FailureProb(vHP))
		}
	}
}

func TestAreaEnergyOrdering(t *testing.T) {
	// At equal size, 6T < 8T < 10T in area, capacitance and leakage.
	for s := 1.0; s <= 3.0; s += 0.5 {
		a6 := Cell{T6, s}.AreaRel()
		a8 := Cell{T8, s}.AreaRel()
		a10 := Cell{T10, s}.AreaRel()
		if !(a6 < a8 && a8 < a10) {
			t.Errorf("size %.1f: area ordering violated: %g %g %g", s, a6, a8, a10)
		}
		c6 := Cell{T6, s}.DynCapRel()
		c8 := Cell{T8, s}.DynCapRel()
		c10 := Cell{T10, s}.DynCapRel()
		if !(c6 < c8 && c8 < c10) {
			t.Errorf("size %.1f: cap ordering violated: %g %g %g", s, c6, c8, c10)
		}
		l8 := Cell{T8, s}.LeakRel(vHP)
		l10 := Cell{T10, s}.LeakRel(vHP)
		if !(l8 < l10) {
			t.Errorf("size %.1f: leakage ordering violated: %g %g", s, l8, l10)
		}
	}
}

func TestSizedULEWayIsCheaperWith8T(t *testing.T) {
	// The headline area/energy claim at the cell level: the sized
	// 8T+EDC cell (including its 39/32 check-bit overhead) beats the
	// sized 10T cell per stored data bit.
	c10, _ := SizeFor(T10, vULE, 1.22e-6)
	c8, _ := SizeFor(T8, vULE, 1.3e-4)
	const overhead = 39.0 / 32.0
	if a8 := c8.AreaRel() * overhead; a8 >= c10.AreaRel() {
		t.Errorf("8T+SECDED area/bit %.2f not below 10T %.2f", a8, c10.AreaRel())
	}
	if e8 := c8.DynCapRel() * overhead; e8 >= c10.DynCapRel() {
		t.Errorf("8T+SECDED cap/bit %.2f not below 10T %.2f", e8, c10.DynCapRel())
	}
	if l8 := c8.LeakRel(vULE) * overhead; l8 >= c10.LeakRel(vULE) {
		t.Errorf("8T+SECDED leak/bit %.3g not below 10T %.3g", l8, c10.LeakRel(vULE))
	}
}

func TestLeakScale(t *testing.T) {
	if got := LeakScale(Vnom); math.Abs(got-1) > 1e-12 {
		t.Errorf("LeakScale(Vnom) = %g", got)
	}
	if l := LeakScale(vULE); l <= 0 || l >= 0.2 {
		t.Errorf("LeakScale(0.35) = %g, want small positive (DIBL collapse)", l)
	}
	if math.Abs(DynScale(vULE)-vULE*vULE) > 1e-12 {
		t.Errorf("DynScale(0.35) = %g", DynScale(vULE))
	}
}

func TestImportanceSamplingMatchesAnalytic(t *testing.T) {
	cases := []struct {
		cell Cell
		vcc  float64
	}{
		{Cell{T10, 2.6}, vULE},
		{Cell{T10, 1.0}, vULE},
		{Cell{T8, 1.3}, vULE},
		{Cell{T6, 1.0}, vHP},
	}
	for _, tc := range cases {
		res := MonteCarloFailureProbN(tc.cell, tc.vcc, 200000, 42, 1)
		if res.Analytic == 0 {
			continue
		}
		rel := math.Abs(res.Pf-res.Analytic) / res.Analytic
		if rel > 0.10 {
			t.Errorf("%v at %.2f V: IS estimate %.4g vs analytic %.4g (rel err %.1f%%)",
				tc.cell, tc.vcc, res.Pf, res.Analytic, rel*100)
		}
	}
}

func TestMonteCarloWorkerCountInvariant(t *testing.T) {
	// The shard plan depends only on the sample count, so the estimate
	// must be bit-identical at every pool size, including a partial
	// last shard (4097) and a single short shard (1).
	c := Cell{T10, 2.6}
	for _, n := range []int{1, mcShard, mcShard + 1, 100_000} {
		want := MonteCarloFailureProbN(c, vULE, n, 11, 1)
		for _, workers := range []int{2, 8} {
			if got := MonteCarloFailureProbN(c, vULE, n, 11, workers); got != want {
				t.Errorf("n=%d workers=%d: %+v, want %+v (workers=1)", n, workers, got, want)
			}
		}
	}
}

func TestNaiveMonteCarloCannotResolveTail(t *testing.T) {
	// With 1e4 samples, the naive estimator sees zero failures for a
	// Pf ≈ 1e-6 cell (modulo the floor term) — demonstrating why the
	// paper needs Chen's importance sampling.
	c := Cell{T10, 2.6}
	res := NaiveMonteCarloFailureProb(c, vULE, 10000, 7)
	if res.Pf-c.FailureFloor(vULE) > 1e-4 {
		t.Errorf("naive MC with 1e4 samples resolved the 1e-6 tail: %g", res.Pf)
	}
	is := MonteCarloFailureProbN(c, vULE, 10000, 7, 1)
	if is.Pf <= 0 {
		t.Error("IS estimate should be positive at 1e4 samples")
	}
}

func TestMonteCarloQuickProperty(t *testing.T) {
	// Property: the IS estimate is always within 50 % of analytic for
	// moderate betas at decent sample counts (loose bound; the tighter
	// deterministic cases are above).
	prop := func(seed int64, sizeQ uint8) bool {
		size := 1.0 + float64(sizeQ%20)*0.1
		c := Cell{T10, size}
		res := MonteCarloFailureProbN(c, vULE, 50000, seed, 1)
		if res.Analytic < 1e-12 {
			return true
		}
		rel := math.Abs(res.Pf-res.Analytic) / res.Analytic
		return rel < 0.5
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

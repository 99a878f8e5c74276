package experiments

import (
	"math"
	"testing"

	"edcache/internal/sim"
)

// binomialInterval returns the central interval [lo, hi] of
// Binomial(n, p) holding at least 1−alpha of its mass: each tail
// outside it carries at most alpha/2. Computed from the exact PMF.
func binomialInterval(n int, p, alpha float64) (lo, hi int) {
	pmf := func(k int) float64 {
		ln, _ := math.Lgamma(float64(n + 1))
		lk, _ := math.Lgamma(float64(k + 1))
		lnk, _ := math.Lgamma(float64(n - k + 1))
		return math.Exp(ln - lk - lnk + float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p))
	}
	for tail := 0.0; lo < n && tail+pmf(lo) <= alpha/2; lo++ {
		tail += pmf(lo)
	}
	hi = n
	for tail := 0.0; hi > 0 && tail+pmf(hi) <= alpha/2; hi-- {
		tail += pmf(hi)
	}
	return lo, hi
}

func TestBinomialInterval(t *testing.T) {
	// Binomial(1000, 0.5): the 99.9 % central interval is 448..552
	// (a normal approximation gives 500 ± 3.29·15.8).
	if lo, hi := binomialInterval(1000, 0.5, 1e-3); lo != 448 || hi != 552 {
		t.Errorf("Binomial(1000, 0.5) 99.9%% interval [%d, %d], want [448, 552]", lo, hi)
	}
}

// TestReliabilityYieldWithinBinomialInterval holds E7's Monte-Carlo
// yield to Eq. (2): for each of the four (scenario, design) tasks, the
// dies accepted over 20 seeds of 2000 trials must lie in the 99.9 %
// binomial interval of 40000 trials at the analytic yield. The
// analytic yield models the same way, so the campaign is unbiased
// exactly when its sampler draws each cell with probability Pf.
func TestReliabilityYieldWithinBinomialInterval(t *testing.T) {
	const seeds, trials = 20, 2000
	reg := sim.NewRegistry()
	RegisterAll(reg, Options{Trials: trials, Workers: 2})
	e, ok := reg.Get("reliability")
	if !ok {
		t.Fatal("reliability experiment not registered")
	}
	var usable, analytic [4]float64
	for seed := int64(1); seed <= seeds; seed++ {
		res, err := sim.Runner{Workers: 2, Seed: seed}.Run(e)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != len(usable) {
			t.Fatalf("%d reliability tasks, want %d", len(res), len(usable))
		}
		for i, r := range res {
			mc, _ := r.Metric("mc_yield")
			an, _ := r.Metric("analytic_yield")
			usable[i] += math.Round(mc.Value * trials)
			analytic[i] = an.Value
		}
	}
	for i, task := range e.Grid() {
		lo, hi := binomialInterval(seeds*trials, analytic[i], 1e-3)
		t.Logf("%s: %.0f of %d dies usable, 99.9%% interval [%d, %d] at analytic yield %.4f",
			task.Label, usable[i], seeds*trials, lo, hi, analytic[i])
		if usable[i] < float64(lo) || usable[i] > float64(hi) {
			t.Errorf("%s: %.0f of %d dies usable, outside the 99.9%% binomial interval [%d, %d] of analytic yield %.4f",
				task.Label, usable[i], seeds*trials, lo, hi, analytic[i])
		}
	}
}

package faults

import (
	"math"
	"math/rand"
	"testing"

	"edcache/internal/ecc"
	"edcache/internal/yield"
)

func paperGeom(dataBits, tagBits int) WayGeometry {
	return WayGeometry{Lines: 32, WordsPerLine: 8, DataWordBits: dataBits, TagWordBits: tagBits}
}

func TestGenerateDeterministic(t *testing.T) {
	g := paperGeom(39, 33)
	a, err := Generate(g, 1e-3, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Generate(g, 1e-3, rand.New(rand.NewSource(1)))
	if a.Count() != b.Count() {
		t.Errorf("same seed produced different maps: %d vs %d faults", a.Count(), b.Count())
	}
}

func TestGenerateFaultCountMatchesExpectation(t *testing.T) {
	g := paperGeom(39, 33)
	const pf = 1e-2
	total := 0
	const trials = 200
	for s := int64(0); s < trials; s++ {
		m, _ := Generate(g, pf, rand.New(rand.NewSource(s)))
		total += m.Count()
	}
	mean := float64(total) / trials
	want := pf * float64(g.TotalBits())
	if math.Abs(mean-want)/want > 0.05 {
		t.Errorf("mean faults %.1f, want ≈ %.1f", mean, want)
	}
}

func TestApplyForcesStuckBits(t *testing.T) {
	g := paperGeom(39, 33)
	m := Empty(g)
	k := WordKey{Line: 3, Word: 2}
	m.Inject(k, BitFault{Pos: 5, Stuck: 0})
	m.Inject(k, BitFault{Pos: 38, Stuck: 1})
	word := uint64(0xFFFFFFFFFF) & ((1 << 39) - 1)
	got := m.Apply(k, word)
	if got&(1<<5) != 0 {
		t.Error("stuck-at-0 not applied")
	}
	if got&(1<<38) == 0 {
		t.Error("stuck-at-1 not applied")
	}
	// Other words unaffected.
	if m.Apply(WordKey{Line: 3, Word: 1}, word) != word {
		t.Error("fault leaked to another word")
	}
	if m.FaultsIn(k) != 2 || m.Count() != 2 {
		t.Errorf("bookkeeping: %d in word, %d total", m.FaultsIn(k), m.Count())
	}
}

func TestUsableCriterion(t *testing.T) {
	g := paperGeom(39, 33)
	m := Empty(g)
	if !m.Usable(0) {
		t.Error("empty map must be usable at tol 0")
	}
	k := WordKey{Line: 0, Word: 0}
	m.Inject(k, BitFault{Pos: 1, Stuck: 1})
	if m.Usable(0) || !m.Usable(1) {
		t.Error("single-fault word: usable must require tol ≥ 1")
	}
	m.Inject(k, BitFault{Pos: 2, Stuck: 0})
	if m.Usable(1) || m.MaxPerWord() != 2 {
		t.Error("double-fault word must break tol 1")
	}
}

func TestMonteCarloYieldMatchesEquation2(t *testing.T) {
	// Cross-validation between the functional fault model and the
	// analytic yield math: the fraction of generated ways that are
	// usable must match Eq. (1)/(2). Uses a high Pf so the MC resolves
	// the yield with few trials.
	const pf = 2e-4
	g := paperGeom(39, 33)
	yg := yield.WayGeometry{Lines: 32, WordsPerLine: 8, DataBits: 32, TagBits: 26}
	analytic := yield.WaySurvival(pf, yg, 7, 7, 1)

	const trials = 3000
	usable := 0
	for s := int64(0); s < trials; s++ {
		m, _ := Generate(g, pf, rand.New(rand.NewSource(1000+s)))
		if m.Usable(1) {
			usable++
		}
	}
	got := float64(usable) / trials
	se := math.Sqrt(analytic * (1 - analytic) / trials)
	if math.Abs(got-analytic) > 4*se+1e-3 {
		t.Errorf("MC yield %.4f vs analytic %.4f (4σ = %.4f)", got, analytic, 4*se)
	}
}

func TestFlipRandomBit(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	word := uint64(0b1010)
	for i := 0; i < 100; i++ {
		flipped := FlipRandomBit(word, 39, rng)
		diff := flipped ^ word
		if diff == 0 || diff&(diff-1) != 0 {
			t.Fatalf("exactly one bit must flip, got diff %#x", diff)
		}
		if diff >= 1<<39 {
			t.Fatalf("flip outside word width: %#x", diff)
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(WayGeometry{}, 0.1, rand.New(rand.NewSource(1))); err == nil {
		t.Error("invalid geometry accepted")
	}
	if _, err := Generate(paperGeom(39, 33), 1.5, rand.New(rand.NewSource(1))); err == nil {
		t.Error("invalid Pf accepted")
	}
}

func TestInterleavedSurvivesBurstsFunctionally(t *testing.T) {
	// End-to-end MBU story: interleaved SECDED words absorb random
	// bursts up to the interleave degree, every time.
	codec, err := ecc.NewInterleaved(ecc.KindSECDED, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(78))
	n := ecc.TotalBits(codec)
	for trial := 0; trial < 2000; trial++ {
		data := rng.Uint64() & ecc.DataMask(codec)
		cw := codec.Encode(data)
		burst := 1 + rng.Intn(4)
		mask := uint64(1)<<uint(burst) - 1
		got, res := codec.Decode(cw ^ mask<<uint(rng.Intn(n-burst+1)))
		if got != data || res.Status == ecc.Detected {
			t.Fatalf("trial %d burst %d: (%#x, %v), want %#x", trial, burst, got, res.Status, data)
		}
	}
}

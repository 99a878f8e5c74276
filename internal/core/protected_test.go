package core

import (
	"math/rand"
	"testing"

	"edcache/internal/ecc"
	"edcache/internal/faults"
	"edcache/internal/yield"
)

func TestProtectedWayRoundTrip(t *testing.T) {
	p, err := NewProtectedWay(32, 8, ecc.KindSECDED, 32, 26, nil)
	if err != nil {
		t.Fatal(err)
	}
	for line := 0; line < 32; line += 7 {
		for word := 0; word < 8; word++ {
			v := uint64(line*8+word) * 0x01010101
			p.WriteData(line, word, v)
			got, res := p.ReadData(line, word)
			if got != v&0xFFFFFFFF || res.Status != ecc.OK {
				t.Fatalf("(%d,%d): got %#x %v", line, word, got, res.Status)
			}
		}
		p.WriteTag(line, uint64(line)|0x300_0000)
		tag, res := p.ReadTag(line)
		if tag != (uint64(line)|0x300_0000)&((1<<26)-1) || res.Status != ecc.OK {
			t.Fatalf("tag %d: %#x %v", line, tag, res.Status)
		}
	}
}

func TestProtectedWaySurvivesHardFault(t *testing.T) {
	// Scenario A's claim in functional form: a hard-faulty 8T cell is
	// transparently corrected by SECDED on every read.
	geom := faults.WayGeometry{Lines: 32, WordsPerLine: 8, DataWordBits: 39, TagWordBits: 33}
	fm := faults.Empty(geom)
	fm.Inject(faults.WordKey{Line: 5, Word: 3}, faults.BitFault{Pos: 17, Stuck: 1})
	fm.Inject(faults.WordKey{Line: 5, Word: 8}, faults.BitFault{Pos: 2, Stuck: 0}) // tag word
	p, err := NewProtectedWay(32, 8, ecc.KindSECDED, 32, 26, fm)
	if err != nil {
		t.Fatal(err)
	}
	p.WriteData(5, 3, 0x0000_0000) // stuck-at-1 disagrees
	got, res := p.ReadData(5, 3)
	if got != 0 {
		t.Fatalf("data corrupted: %#x", got)
	}
	if res.Status != ecc.Corrected {
		t.Fatalf("status %v, want Corrected", res.Status)
	}
	p.WriteTag(5, 0x3FF_FFFF)
	tag, res := p.ReadTag(5)
	if tag != 0x3FF_FFFF || res.Status != ecc.Corrected {
		t.Fatalf("tag: %#x %v", tag, res.Status)
	}
}

func TestProtectedWayScenarioBHardPlusSoft(t *testing.T) {
	// Scenario B's claim: DECTED corrects a hard fault AND a soft error
	// in the same word.
	geom := faults.WayGeometry{Lines: 32, WordsPerLine: 8, DataWordBits: 45, TagWordBits: 39}
	fm := faults.Empty(geom)
	fm.Inject(faults.WordKey{Line: 1, Word: 0}, faults.BitFault{Pos: 9, Stuck: 1})
	p, err := NewProtectedWay(32, 8, ecc.KindDECTED, 32, 26, fm)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		v := rng.Uint64() & 0xFFFFFFFF
		p.WriteData(1, 0, v)
		p.InjectSoftError(1, 0, rng)
		got, res := p.ReadData(1, 0)
		if got != v || res.Status == ecc.Detected {
			t.Fatalf("trial %d: got %#x (%v), want %#x", trial, got, res.Status, v)
		}
	}
}

func TestProtectedWaySECDEDCannotTakeHardPlusSoft(t *testing.T) {
	// The converse: SECDED (scenario A) detects but cannot correct a
	// hard fault plus a soft error — which is exactly why scenario B
	// (soft errors in the requirement) needs DECTED.
	geom := faults.WayGeometry{Lines: 32, WordsPerLine: 8, DataWordBits: 39, TagWordBits: 33}
	fm := faults.Empty(geom)
	fm.Inject(faults.WordKey{Line: 0, Word: 0}, faults.BitFault{Pos: 3, Stuck: 1})
	p, err := NewProtectedWay(32, 8, ecc.KindSECDED, 32, 26, fm)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(33))
	detected := 0
	const trials = 300
	for trial := 0; trial < trials; trial++ {
		p.WriteData(0, 0, 0) // stuck-at-1 at pos 3 is a real fault now
		p.InjectSoftError(0, 0, rng)
		_, res := p.ReadData(0, 0)
		if res.Status == ecc.Detected {
			detected++
		}
	}
	// The soft error occasionally lands on the faulty bit itself (then
	// one error remains, correctable); every other case must be a
	// detected double error.
	if detected < trials*8/10 {
		t.Errorf("only %d/%d hard+soft cases detected by SECDED", detected, trials)
	}
}

func TestProtectedWayGeometryMismatch(t *testing.T) {
	geom := faults.WayGeometry{Lines: 32, WordsPerLine: 8, DataWordBits: 39, TagWordBits: 33}
	fm := faults.Empty(geom)
	// DECTED words are 45/39 bits; a 39/33 map must be rejected.
	if _, err := NewProtectedWay(32, 8, ecc.KindDECTED, 32, 26, fm); err == nil {
		t.Error("mismatched fault-map geometry accepted")
	}
}

// TestReliabilityEquivalence is experiment E7: Monte-Carlo confirmation
// that the proposed design reaches at least the baseline's yield, with
// both designs evaluated functionally (generate silicon, check every
// word is usable).
func TestReliabilityEquivalence(t *testing.T) {
	res, err := yield.Run(yield.PaperInput(yield.ScenarioA))
	if err != nil {
		t.Fatal(err)
	}
	const trials = 400
	usableBase, usableProp := 0, 0
	for s := int64(0); s < trials; s++ {
		// Baseline: 10T way, no coding — usable iff zero faults.
		gb := faults.WayGeometry{Lines: 32, WordsPerLine: 8, DataWordBits: 32, TagWordBits: 26}
		mb, err := faults.Generate(gb, res.BaselinePf, rand.New(rand.NewSource(7000+s)))
		if err != nil {
			t.Fatal(err)
		}
		if mb.Usable(0) {
			usableBase++
		}
		// Proposed: 8T+SECDED — usable iff ≤1 fault per codeword.
		gp := faults.WayGeometry{Lines: 32, WordsPerLine: 8, DataWordBits: 39, TagWordBits: 33}
		mp, err := faults.Generate(gp, res.ProposedPf, rand.New(rand.NewSource(9000+s)))
		if err != nil {
			t.Fatal(err)
		}
		if mp.Usable(1) {
			usableProp++
		}
	}
	yb := float64(usableBase) / trials
	yp := float64(usableProp) / trials
	// Both must sit near their analytic values (≥98% here), and the
	// proposed design must not be less reliable than the baseline
	// beyond MC noise.
	if yb < 0.97 {
		t.Errorf("baseline MC yield %.3f implausibly low (analytic %.4f)", yb, res.BaselineYield)
	}
	if yp < yb-0.02 {
		t.Errorf("proposed MC yield %.3f below baseline %.3f", yp, yb)
	}
}

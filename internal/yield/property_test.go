package yield

import (
	"math"
	"testing"
	"testing/quick"
)

// Property tests on the yield mathematics: the Fig. 2 loop's
// convergence relies on these monotonicity facts, so they are pinned
// explicitly.

func TestRequiredPfBitsMonotoneInBits(t *testing.T) {
	prev := math.Inf(1)
	for _, bits := range []int{1024, 8192, 65536, 1 << 20} {
		pf := RequiredPfBits(0.99, bits)
		if pf >= prev {
			t.Errorf("%d bits: required Pf %.3g not below previous", bits, pf)
		}
		prev = pf
	}
}

func TestWaySurvivalQuickMonotoneInPf(t *testing.T) {
	g := PaperWay()
	prop := func(a, b uint16) bool {
		pfA := float64(a%10000+1) * 1e-8
		pfB := float64(b%10000+1) * 1e-8
		if pfA > pfB {
			pfA, pfB = pfB, pfA
		}
		return WaySurvival(pfA, g, 7, 7, 1) >= WaySurvival(pfB, g, 7, 7, 1)-1e-15
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestWordSurvivalQuickBounds(t *testing.T) {
	prop := func(pfQ uint16, bitsQ, tolQ uint8) bool {
		pf := float64(pfQ) / 65535.0
		bits := int(bitsQ%64) + 1
		tol := int(tolQ % 4)
		s := WordSurvival(pf, bits, tol)
		return s >= 0 && s <= 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestMethodologyDeterminism(t *testing.T) {
	// Two identical runs of the sizing methodology must agree exactly
	// (the whole evaluation depends on it).
	a, err := Run(PaperInput(ScenarioB))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(PaperInput(ScenarioB))
	if err != nil {
		t.Fatal(err)
	}
	if a.ProposedCell != b.ProposedCell || a.BaselineCell != b.BaselineCell ||
		a.PfTarget != b.PfTarget || len(a.Iterations) != len(b.Iterations) {
		t.Error("methodology is not deterministic")
	}
}

func TestMethodologyRespectsVoltageOrdering(t *testing.T) {
	// Lower ULE voltage ⇒ at-least-as-large sized cells in both
	// designs.
	prevBase, prevProp := 0.0, 0.0
	for _, mv := range []float64{450, 400, 350, 320} {
		in := PaperInput(ScenarioA)
		in.VccULE = mv / 1000
		res, err := Run(in)
		if err != nil {
			t.Fatalf("%0.f mV: %v", mv, err)
		}
		if res.BaselineCell.Size < prevBase || res.ProposedCell.Size < prevProp {
			t.Errorf("%.0f mV: cell sizes shrank as voltage dropped (10T %.2f, 8T %.2f)",
				mv, res.BaselineCell.Size, res.ProposedCell.Size)
		}
		prevBase, prevProp = res.BaselineCell.Size, res.ProposedCell.Size
	}
}

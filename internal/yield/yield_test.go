package yield

import (
	"math"
	"testing"
	"testing/quick"
)

func TestWordSurvivalDegenerateCases(t *testing.T) {
	if got := WordSurvival(0, 39, 0); got != 1 {
		t.Errorf("Pf=0: survival %g, want 1", got)
	}
	if got := WordSurvival(1, 39, 0); got != 0 {
		t.Errorf("Pf=1, tol=0: survival %g, want 0", got)
	}
	if got := WordSurvival(1, 1, 1); got != 1 {
		t.Errorf("Pf=1, 1 bit, tol=1: survival %g, want 1", got)
	}
}

func TestWordSurvivalMatchesDirectFormula(t *testing.T) {
	// Eq. (1) with tol=1 against a directly-coded version.
	for _, pf := range []float64{1e-3, 1e-5, 1e-7} {
		for _, n := range []int{33, 39, 45} {
			got := WordSurvival(pf, n, 1)
			direct := math.Pow(1-pf, float64(n)) +
				float64(n)*pf*math.Pow(1-pf, float64(n-1))
			if math.Abs(got-direct)/direct > 1e-12 {
				t.Errorf("pf=%g n=%d: %g vs direct %g", pf, n, got, direct)
			}
		}
	}
}

func TestWordSurvivalMonotonicity(t *testing.T) {
	// More tolerable faults → higher survival; higher Pf → lower.
	for _, pf := range []float64{1e-6, 1e-4, 1e-2} {
		if WordSurvival(pf, 39, 1) < WordSurvival(pf, 39, 0) {
			t.Errorf("pf=%g: tol=1 survival below tol=0", pf)
		}
	}
	prev := 1.0
	for _, pf := range []float64{1e-8, 1e-6, 1e-4, 1e-2, 0.1} {
		s := WordSurvival(pf, 39, 1)
		if s > prev {
			t.Errorf("survival increased with Pf at %g", pf)
		}
		prev = s
	}
}

func TestRequiredPfBitsPaperExample(t *testing.T) {
	// The paper, Section III-C: "to have a 99% yield for an 8KB cache,
	// faulty bit rate Pf must be 1.22e-6" — the figure corresponds to
	// the 8192 data bits of the 1 KB ULE way.
	pf := RequiredPfBits(0.99, 8192)
	if math.Abs(pf-1.22e-6)/1.22e-6 > 0.01 {
		t.Errorf("RequiredPfBits(0.99, 8192) = %.4g, want 1.22e-6 ±1%%", pf)
	}
	// Round trip: (1-pf)^bits == 0.99.
	y := math.Exp(8192 * math.Log1p(-pf))
	if math.Abs(y-0.99) > 1e-9 {
		t.Errorf("round trip yield %g", y)
	}
}

func TestSECDEDRelaxesPfByOrdersOfMagnitude(t *testing.T) {
	// The whole point of the architecture: tolerating one hard fault
	// per word relaxes the per-bit Pf requirement enough that small 8T
	// cells suffice. Quantify: factor of > 3 relaxation at 99 % yield.
	g := PaperWay()
	pfPlain := RequiredPfBits(0.99, g.TotalBits(0, 0))
	if y := WaySurvival(3*pfPlain, g, 7, 7, 1); y < 0.99 {
		t.Errorf("SECDED relaxation too small: yield %.4f at 3x the plain Pf %.3g", y, pfPlain)
	}
}

func TestPaperWayGeometry(t *testing.T) {
	g := PaperWay()
	if g.DataWords() != 256 {
		t.Errorf("ULE way data words = %d, want 256 (1 KB / 32-bit words)", g.DataWords())
	}
	if g.TagWords() != 32 {
		t.Errorf("ULE way tag words = %d, want 32", g.TagWords())
	}
	if g.TotalBits(7, 7) != 256*39+32*33 {
		t.Errorf("total bits with SECDED = %d", g.TotalBits(7, 7))
	}
}

func TestMethodologyScenarioA(t *testing.T) {
	res, err := Run(PaperInput(ScenarioA))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.PfTarget-1.22e-6)/1.22e-6 > 0.01 {
		t.Errorf("PfTarget = %.4g, want the paper's 1.22e-6", res.PfTarget)
	}
	if res.HPCell.Topo.String() != "6T" || res.HPCell.Size != 1.0 {
		t.Errorf("HP cell %v, want minimum-size 6T", res.HPCell)
	}
	if res.BaselineCell.Size < 2.2 || res.BaselineCell.Size > 3.2 {
		t.Errorf("baseline 10T size %.2f outside [2.2, 3.2]", res.BaselineCell.Size)
	}
	if res.ProposedCell.Size < 1.0 || res.ProposedCell.Size > 1.7 {
		t.Errorf("proposed 8T size %.2f outside [1.0, 1.7]", res.ProposedCell.Size)
	}
	if res.ProposedCell.Size >= res.BaselineCell.Size {
		t.Error("proposed 8T cell should be smaller than baseline 10T cell")
	}
	if res.ProposedYield < res.BaselineYield {
		t.Errorf("proposed yield %.6f below baseline %.6f — methodology contract violated",
			res.ProposedYield, res.BaselineYield)
	}
	if res.BaselineYield < 0.99 {
		t.Errorf("baseline yield %.6f below the 99%% target", res.BaselineYield)
	}
	if res.UncodedFeasible {
		t.Error("plain 8T met the fault-free target — contradicts the paper's premise")
	}
	if len(res.Iterations) < 2 {
		t.Errorf("expected the Fig. 2 loop to iterate, got %d passes", len(res.Iterations))
	}
	for i, it := range res.Iterations {
		wantMet := i == len(res.Iterations)-1
		if it.Met != wantMet {
			t.Errorf("iteration %d Met=%v, want %v", i, it.Met, wantMet)
		}
	}
}

func TestMethodologyScenarioB(t *testing.T) {
	a, err := Run(PaperInput(ScenarioA))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(PaperInput(ScenarioB))
	if err != nil {
		t.Fatal(err)
	}
	// Scenario B's words are longer (DECTED 13 check bits, and the
	// baseline's SECDED bits must also be fault-free), so its cells are
	// at least as large as scenario A's.
	if b.ProposedCell.Size < a.ProposedCell.Size {
		t.Errorf("scenario B 8T size %.2f below scenario A %.2f", b.ProposedCell.Size, a.ProposedCell.Size)
	}
	if b.BaselineYield > a.BaselineYield {
		t.Errorf("scenario B baseline yield %.6f above scenario A %.6f (extra SECDED bits must cost yield)",
			b.BaselineYield, a.BaselineYield)
	}
	if b.ProposedYield < b.BaselineYield {
		t.Error("scenario B proposed yield below its baseline")
	}
	if b.Input.Scenario.ProposedCode().CheckBits() != 13 {
		t.Error("scenario B must use DECTED (13 check bits)")
	}
}

func TestMethodologyInputValidation(t *testing.T) {
	in := PaperInput(ScenarioA)
	in.TargetYield = 1.5
	if _, err := Run(in); err == nil {
		t.Error("invalid yield accepted")
	}
	in = PaperInput(ScenarioA)
	in.VccULE = 1.2
	if _, err := Run(in); err == nil {
		t.Error("ULE voltage above HP accepted")
	}
	in = PaperInput(ScenarioA)
	in.Way.Lines = 0
	if _, err := Run(in); err == nil {
		t.Error("invalid geometry accepted")
	}
}

func TestScenarioCodeMapping(t *testing.T) {
	if ScenarioA.BaselineCode().String() != "none" || ScenarioA.ProposedCode().String() != "SECDED" {
		t.Errorf("scenario A codes: %v/%v", ScenarioA.BaselineCode(), ScenarioA.ProposedCode())
	}
	if ScenarioB.BaselineCode().String() != "SECDED" || ScenarioB.ProposedCode().String() != "DECTED" {
		t.Errorf("scenario B codes: %v/%v", ScenarioB.BaselineCode(), ScenarioB.ProposedCode())
	}
	if ScenarioA.String() != "A" || ScenarioB.String() != "B" {
		t.Errorf("scenario names: %v %v", ScenarioA, ScenarioB)
	}
}

func TestWaySurvivalQuickProperties(t *testing.T) {
	g := PaperWay()
	// Property: survival in [0,1] and adding check bits with tol=0
	// never helps (more bits that must be clean).
	prop := func(pfExp uint8) bool {
		pf := math.Pow(10, -1-float64(pfExp%8))
		plain := WaySurvival(pf, g, 0, 0, 0)
		coded0 := WaySurvival(pf, g, 7, 7, 0)
		coded1 := WaySurvival(pf, g, 7, 7, 1)
		return plain >= 0 && plain <= 1 && coded0 <= plain && coded1 >= plain
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

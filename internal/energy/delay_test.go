package energy

import (
	"math"
	"testing"

	"edcache/internal/bitcell"
)

func TestGateDelayScaling(t *testing.T) {
	if got := GateDelayNS(1.0); math.Abs(got-gateDelayNom)/gateDelayNom > 1e-9 {
		t.Errorf("gate delay at Vnom = %g, want %g", got, gateDelayNom)
	}
	// Delay grows monotonically as voltage falls toward threshold.
	prev := 0.0
	for _, v := range []float64{1.0, 0.8, 0.6, 0.45, 0.35} {
		d := GateDelayNS(v)
		if d <= prev {
			t.Errorf("delay at %.2f V (%g) not above delay at higher voltage (%g)", v, d, prev)
		}
		prev = d
	}
	// Near-threshold penalty is an order of magnitude or more.
	if ratio := GateDelayNS(0.35) / GateDelayNS(1.0); ratio < 8 {
		t.Errorf("350 mV delay penalty %.1fx implausibly small", ratio)
	}
	// At or below the effective threshold the model reports infinity.
	if !math.IsInf(GateDelayNS(0.28), 1) {
		t.Error("delay at Vt must be infinite")
	}
}

func TestPaperOperatingPointsAreFeasible(t *testing.T) {
	// The modelled arrays must close timing at the paper's operating
	// points: 1 GHz at 1 V (HP) and 5 MHz at 350 mV (ULE) — the latter
	// with enormous slack (the paper's conservative frequency choice,
	// which is also why the EDC stage fits in one ULE cycle).
	hp := paperWay(bitcell.MustNew(bitcell.T6, 1.0), 0)
	ule8 := paperWay(bitcell.MustNew(bitcell.T8, 1.2), 7)
	ule10 := paperWay(bitcell.MustNew(bitcell.T10, 2.6), 0)
	flat := Partition{1, 1}

	if d := hp.AccessDelayNS(1.0, flat); d > 1/1.0 {
		t.Errorf("6T way misses 1 GHz at 1 V (slack %.2f)", (1/1.0)/d)
	}
	for _, w := range []WayArray{ule8, ule10} {
		cycle, d := 1/0.005, w.AccessDelayNS(0.35, flat)
		if d > cycle {
			t.Errorf("%v way misses 5 MHz at 350 mV", w.Cell)
		}
		if slack := cycle / d; slack < 5 {
			t.Errorf("%v way ULE slack %.1f implausibly tight for the paper's conservative clock", w.Cell, slack)
		}
	}
	// But the ULE arrays cannot run anywhere near HP frequency at NST
	// voltage — the reason the ULE mode clock is three decades slower.
	if ule10.AccessDelayNS(0.35, flat) <= 1/1.0 {
		t.Error("10T way closing 1 GHz at 350 mV is implausible")
	}
}

func TestBitlineSegmentationShortensDelay(t *testing.T) {
	w := paperWay(bitcell.MustNew(bitcell.T10, 2.6), 0)
	d1 := w.AccessDelayNS(0.35, Partition{1, 1})
	d4 := w.AccessDelayNS(0.35, Partition{1, 4})
	if d4 >= d1 {
		t.Errorf("Ndbl=4 delay %g not below flat %g", d4, d1)
	}
}

package energy

import (
	"math"
	"testing"

	"edcache/internal/bitcell"
	"edcache/internal/ecc"
)

func paperWay(cell bitcell.Cell, check int) WayArray {
	return WayArray{
		Cell:  cell,
		Lines: 32, WordsPerLine: 8,
		DataBits: 32, DataCheck: check,
		TagBits: 26, TagCheck: check,
	}
}

func TestWayArrayBitCounts(t *testing.T) {
	w := paperWay(bitcell.MustNew(bitcell.T10, 2.6), 0)
	if got := w.StorageBits(); got != 9024 {
		t.Errorf("uncoded storage bits = %d, want 9024", got)
	}
	ws := paperWay(bitcell.MustNew(bitcell.T8, 1.2), 7)
	if got := ws.StorageBits(); got != 32*(8*39+33) {
		t.Errorf("SECDED storage bits = %d, want %d", got, 32*(8*39+33))
	}
}

func TestAccessEnergyVoltageScaling(t *testing.T) {
	w := paperWay(bitcell.MustNew(bitcell.T6, 1.0), 0)
	eHP := w.AccessEnergy(1.0, 32, 26)
	eULE := w.AccessEnergy(0.35, 32, 26)
	want := 0.35 * 0.35
	if got := eULE / eHP; math.Abs(got-want) > 1e-9 {
		t.Errorf("CV² scaling: ratio %g, want %g", got, want)
	}
}

func TestAccessEnergyGrowsWithWidthAndCell(t *testing.T) {
	c6 := paperWay(bitcell.MustNew(bitcell.T6, 1.0), 0)
	c10 := paperWay(bitcell.MustNew(bitcell.T10, 2.6), 0)
	if c10.AccessEnergy(1, 32, 26) <= c6.AccessEnergy(1, 32, 26) {
		t.Error("sized 10T access must cost more than minimum 6T")
	}
	if c6.AccessEnergy(1, 39, 33) <= c6.AccessEnergy(1, 32, 26) {
		t.Error("reading check bits must cost extra")
	}
	if w := c6.WriteEnergy(1, 32, 0); w <= c6.AccessEnergy(1, 32, 0) {
		t.Error("write must cost at least a read of the same width")
	}
}

func TestLeakPowerGating(t *testing.T) {
	w := paperWay(bitcell.MustNew(bitcell.T6, 1.0), 0)
	on := w.LeakPower(0.35, false)
	off := w.LeakPower(0.35, true)
	if math.Abs(off/on-GatedLeakResidual) > 1e-9 {
		t.Errorf("gated residual = %g, want %g", off/on, GatedLeakResidual)
	}
	// Leakage collapses with voltage (DIBL).
	if w.LeakPower(0.35, false) >= w.LeakPower(1.0, false)*0.2 {
		t.Error("leakage should collapse at 350 mV")
	}
}

func TestSizedULEWayEnergyOrdering(t *testing.T) {
	// The architectural claim at the array level, with methodology-sized
	// cells: the 8T+SECDED way (reading its full codeword) costs less
	// per access and leaks less than the fault-free 10T way, at ULE
	// voltage.
	w10 := paperWay(bitcell.MustNew(bitcell.T10, 2.6), 0)
	w8 := paperWay(bitcell.MustNew(bitcell.T8, 1.2), 7)
	a10 := w10.AccessEnergy(0.35, 32, 26)
	a8 := w8.AccessEnergy(0.35, 39, 33)
	if a8 >= a10 {
		t.Errorf("8T+SECDED access %g ≥ 10T access %g", a8, a10)
	}
	if l8, l10 := w8.LeakPower(0.35, false), w10.LeakPower(0.35, false); l8 >= l10 {
		t.Errorf("8T+SECDED leakage %g ≥ 10T %g", l8, l10)
	}
	if ar8, ar10 := w8.Area(), w10.Area(); ar8 >= ar10 {
		t.Errorf("8T+SECDED area %g ≥ 10T %g", ar8, ar10)
	}
}

func TestCodecModelScaling(t *testing.T) {
	s := NewCodecModel(ecc.KindSECDED, 32)
	d := NewCodecModel(ecc.KindDECTED, 32)
	n := NewCodecModel(ecc.KindNone, 32)
	if n.EncGates != 0 || n.DecGates != 0 || n.DecodeEnergy(1) != 0 {
		t.Error("no-coding codec must be free")
	}
	if d.DecGates <= s.DecGates*3 {
		t.Errorf("DECTED decoder (%d gates) must dwarf SECDED's (%d): the scenario-B overhead",
			d.DecGates, s.DecGates)
	}
	if s.DecodeEnergy(0.35) >= s.DecodeEnergy(1.0) {
		t.Error("codec energy must scale down with voltage")
	}
	if d.Area() <= s.Area() {
		t.Error("DECTED codec area must exceed SECDED's")
	}
	if got := s.EncodeEnergy(1.0); math.Abs(got-float64(s.EncGates)*GateEnergy) > 1e-12 {
		t.Errorf("encode energy %g", got)
	}
}

func TestCodecEnergySmallVsArrayAccess(t *testing.T) {
	// Sanity on magnitudes: at ULE mode, SECDED decode must be a small
	// fraction of the way access energy (the paper's EDC overhead is a
	// few percent). The parallel BCH DECTED decoder (syndromes, locator
	// solve, 45-position Chien search) is legitimately of the same order
	// as an array access — the scenario-B overhead — but must not dwarf
	// it.
	w8 := paperWay(bitcell.MustNew(bitcell.T8, 1.2), 7)
	acc := w8.AccessEnergy(0.35, 39, 33)
	sec := NewCodecModel(ecc.KindSECDED, 32).DecodeEnergy(0.35)
	dec := NewCodecModel(ecc.KindDECTED, 32).DecodeEnergy(0.35)
	if sec > 0.15*acc {
		t.Errorf("SECDED decode %g too large vs access %g", sec, acc)
	}
	if dec < sec {
		t.Error("DECTED decode must cost more than SECDED")
	}
	if dec > 2.0*acc {
		t.Errorf("DECTED decode %g implausibly large vs access %g", dec, acc)
	}
}

func TestValidate(t *testing.T) {
	w := paperWay(bitcell.MustNew(bitcell.T6, 1.0), 0)
	if err := w.Validate(); err != nil {
		t.Errorf("valid geometry rejected: %v", err)
	}
	w.Lines = 0
	if err := w.Validate(); err == nil {
		t.Error("zero lines accepted")
	}
	w = paperWay(bitcell.MustNew(bitcell.T6, 1.0), 0)
	w.DataCheck = -1
	if err := w.Validate(); err == nil {
		t.Error("negative check bits accepted")
	}
}

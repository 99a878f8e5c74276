// Package energy is the repo's stand-in for the paper's custom-extended
// CACTI 6.5: an array-level energy, leakage and area model for
// heterogeneous-cell caches at the 32 nm node, covering both operating
// voltages (1 V HP, 350 mV ULE), per-word EDC check-bit overheads, and
// the EDC encoder/decoder circuits that the paper characterises with
// HSPICE. All quantities derive from the per-cell electrical factors in
// internal/bitcell plus the structural constants in params.go.
package energy

import (
	"fmt"

	"edcache/internal/bitcell"
	"edcache/internal/ecc"
)

// WayArray describes the storage arrays of one cache way: its bitcell,
// its line geometry, and the per-word check-bit columns it carries.
type WayArray struct {
	Cell         bitcell.Cell
	Lines        int
	WordsPerLine int
	DataBits     int // payload bits per data word (paper: 32)
	DataCheck    int // check bits per data word (0, 7 or 13)
	TagBits      int // payload bits per tag word (paper: 26)
	TagCheck     int // check bits per tag word
}

// Validate reports whether the geometry is well-formed.
func (w WayArray) Validate() error {
	if w.Lines <= 0 || w.WordsPerLine <= 0 || w.DataBits <= 0 || w.TagBits <= 0 {
		return fmt.Errorf("energy: invalid way geometry %+v", w)
	}
	if w.DataCheck < 0 || w.TagCheck < 0 {
		return fmt.Errorf("energy: negative check bits %+v", w)
	}
	return nil
}

// StorageBits returns all bits the way keeps powered, including check
// columns.
func (w WayArray) StorageBits() int {
	return w.Lines * (w.WordsPerLine*(w.DataBits+w.DataCheck) + w.TagBits + w.TagCheck)
}

// AccessEnergy returns the dynamic energy (pJ) of one access that senses
// dataBits of one data word and tagBits of the tag word in this way, at
// the given supply voltage. The caller chooses the widths per operating
// mode: e.g. a scenario-A 8T way reads only the 32+26 payload bits at HP
// mode (SECDED off) but the full 39+33 codeword at ULE mode.
func (w WayArray) AccessEnergy(vcc float64, dataBits, tagBits int) float64 {
	bits := float64(dataBits + tagBits)
	dyn := bitcell.DynScale(vcc)
	bitline := bits * BitReadEnergy * w.Cell.DynCapRel() * dyn
	periph := (WayPeriphEnergy + TagMatchEnergy) * dyn
	return bitline + periph
}

// WriteEnergy returns the dynamic energy (pJ) of writing dataBits of one
// data word plus tagBits of tag (tagBits is zero for a write hit that
// leaves the tag untouched).
func (w WayArray) WriteEnergy(vcc float64, dataBits, tagBits int) float64 {
	return w.AccessEnergy(vcc, dataBits, tagBits) * WriteEnergyFactor
}

// LeakPower returns the leakage power (pJ/ns) of the whole way at the
// given voltage. A gated way (gated-Vdd, used for HP ways at ULE mode)
// retains only the residual fraction.
func (w WayArray) LeakPower(vcc float64, gated bool) float64 {
	p := float64(w.StorageBits()) * BitLeakPower * w.Cell.LeakRel(vcc) * (1 + PeriphLeakFrac)
	if gated {
		p *= GatedLeakResidual
	}
	return p
}

// Area returns the layout area of the way in minimum-6T-cell
// equivalents, including check columns and peripheral overhead.
func (w WayArray) Area() float64 {
	return float64(w.StorageBits()) * w.Cell.AreaRel() * (1 + PeriphAreaFrac)
}

// CodecModel is the electrical model of one EDC encoder/decoder pair, as
// the paper obtains from HSPICE simulation of the Hsiao and BCH circuits
// at 32 nm (Section IV-A).
type CodecModel struct {
	Kind     ecc.Kind
	DataBits int
	EncGates int
	DecGates int
}

// NewCodecModel builds the gate-count model for the given code family at
// the given word width. KindNone (and parity, which the architecture
// never uses standalone) cost nothing.
func NewCodecModel(kind ecc.Kind, dataBits int) CodecModel {
	m := CodecModel{Kind: kind, DataBits: dataBits}
	switch kind {
	case ecc.KindSECDED:
		m.EncGates = secdedEncGatesPerBit * dataBits
		m.DecGates = secdedDecGatesPerBit * dataBits
	case ecc.KindDECTED:
		m.EncGates = dectedEncGatesPerBit * dataBits
		m.DecGates = dectedDecGatesPerBit * dataBits
	case ecc.KindParity:
		m.EncGates = dataBits
		m.DecGates = dataBits
	}
	return m
}

// EncodeEnergy returns the energy (pJ) of one encode pass at vcc.
func (m CodecModel) EncodeEnergy(vcc float64) float64 {
	return float64(m.EncGates) * GateEnergy * bitcell.DynScale(vcc)
}

// DecodeEnergy returns the energy (pJ) of one decode pass at vcc.
func (m CodecModel) DecodeEnergy(vcc float64) float64 {
	return float64(m.DecGates) * GateEnergy * bitcell.DynScale(vcc)
}

// LeakPower returns the codec's leakage (pJ/ns); a codec whose mode is
// inactive is power-gated by the same mechanism as the HP ways.
func (m CodecModel) LeakPower(vcc float64, gated bool) float64 {
	p := float64(m.EncGates+m.DecGates) * GateLeakPower * bitcell.LeakScale(vcc)
	if gated {
		p *= GatedLeakResidual
	}
	return p
}

// Area returns the codec layout area in minimum-6T-cell equivalents.
func (m CodecModel) Area() float64 {
	return float64(m.EncGates+m.DecGates) * GateAreaCells
}

package energy

import "math"

// Access-time model: the third quantity CACTI reports alongside energy
// and area. The paper fixes its operating points at 1 GHz (1 V) and
// 5 MHz (350 mV) following the Intel NTV processor [10]; this model
// verifies those choices are feasible for the modelled arrays — gate
// delay degrades steeply near threshold (alpha-power law), and the
// conservative 200 ns ULE cycle leaves wide margin, which is also why
// the ULE-mode EDC stage fits in one cycle.
const (
	// gateDelayNom is the FO4-ish gate delay at Vnom (ns).
	gateDelayNom = 0.012

	// alphaPower and vtEff parameterise the alpha-power-law delay
	// scaling d(V) ∝ V / (V − Vt)^alpha for the 32 nm node.
	alphaPower = 1.4
	vtEff      = 0.28

	// Per-component gate-equivalents of the array critical path.
	decoderLevelsPerBit = 1.0  // decoder levels per address bit
	wordlineGates       = 3.0  // wordline driver chain
	senseGates          = 4.0  // sense amplifier + latch
	outputGates         = 3.0  // way mux + output drive
	bitlineGatesPerCell = 0.05 // bitline RC per cell on the bitline, in gate delays
)

// GateDelayNS returns one logic-gate delay at the given voltage.
func GateDelayNS(vcc float64) float64 {
	if vcc <= vtEff {
		return math.Inf(1)
	}
	ref := 1.0 / math.Pow(1.0-vtEff, alphaPower)
	return gateDelayNom * (vcc / math.Pow(vcc-vtEff, alphaPower)) / ref
}

// AccessDelayNS returns the critical-path access time of the way at the
// given voltage and partition: decoder, wordline, bitline discharge
// (scaling with cells per bitline segment and the cell's drive-adjusted
// load), sense and output.
func (w WayArray) AccessDelayNS(vcc float64, p Partition) float64 {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	g := GateDelayNS(vcc)
	addrBits := math.Ceil(math.Log2(float64(w.Lines)))
	cellsPerBitline := float64(w.Lines) / float64(p.Ndbl)
	// Larger cells load the bitline more but also discharge it harder;
	// the residual load factor grows sub-linearly with cell capacitance.
	load := math.Sqrt(w.Cell.DynCapRel())
	return g * (decoderLevelsPerBit*addrBits +
		wordlineGates +
		bitlineGatesPerCell*cellsPerBitline*load +
		senseGates + outputGates)
}

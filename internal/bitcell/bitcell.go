// Package bitcell models the SRAM cells the hybrid cache architecture is
// built from: differential 6T cells for the high-performance (HP) ways,
// and 8T or Schmitt-trigger 10T cells for the ultra-low-energy (ULE)
// ways. It provides per-cell hard-fault probabilities as a function of
// supply voltage and transistor sizing — the quantity the paper obtains
// from HSPICE Monte-Carlo with the importance-sampling analysis of Chen
// et al. (ICCAD 2007) — plus the relative area, capacitance and leakage
// factors the energy model consumes.
package bitcell

import (
	"fmt"
	"math"
)

// Topology enumerates the SRAM cell circuit topologies used in the paper.
type Topology int

const (
	// T6 is the differential 6-transistor cell (HP ways).
	T6 Topology = iota
	// T8 is the 8-transistor cell with a decoupled read port (Morita et
	// al., VLSI 2007) — the proposed ULE-way cell.
	T8
	// T10 is the Schmitt-trigger-based 10-transistor cell (Kulkarni et
	// al., ISLPED 2007) — the baseline ULE-way cell.
	T10
)

// String returns the conventional cell name.
func (t Topology) String() string {
	switch t {
	case T6:
		return "6T"
	case T8:
		return "8T"
	case T10:
		return "10T"
	default:
		return fmt.Sprintf("Topology(%d)", int(t))
	}
}

// Cell is a sized SRAM bitcell: a topology plus a transistor width/length
// scaling factor relative to the minimum size allowed by the technology
// node (Size = 1.0 is minimum size).
type Cell struct {
	Topo Topology
	Size float64
}

// New returns a Cell, validating the size factor.
func New(t Topology, size float64) (Cell, error) {
	if _, ok := topoParams[t]; !ok {
		return Cell{}, fmt.Errorf("bitcell: unknown topology %v", t)
	}
	if size < 1.0 || size > MaxSizeFactor {
		return Cell{}, fmt.Errorf("bitcell: size factor %.2f outside [1, %.1f]", size, MaxSizeFactor)
	}
	return Cell{Topo: t, Size: size}, nil
}

// MustNew is New, panicking on error.
func MustNew(t Topology, size float64) Cell {
	c, err := New(t, size)
	if err != nil {
		panic(err)
	}
	return c
}

// String describes the cell, e.g. "10T(x2.60)".
func (c Cell) String() string { return fmt.Sprintf("%v(x%.2f)", c.Topo, c.Size) }

// MarginMean returns the mean operating margin (volts) of the cell at the
// given supply voltage; negative means the topology cannot operate there
// regardless of variation.
func (c Cell) MarginMean(vcc float64) float64 {
	p := topoParams[c.Topo]
	return p.slope * (vcc - p.vmin)
}

// MarginSigma returns the standard deviation of the margin (volts) at the
// given supply voltage, after Pelgrom scaling with cell size and
// low-voltage variability amplification.
func (c Cell) MarginSigma(vcc float64) float64 {
	p := topoParams[c.Topo]
	return SigmaVt0 / math.Pow(c.Size, PelgromExp) * math.Exp(p.amp*(Vnom-vcc))
}

// FailureFloor returns the size-independent component of the hard-fault
// probability at the given voltage.
func (c Cell) FailureFloor(vcc float64) float64 {
	p := topoParams[c.Topo]
	return p.floorK * math.Exp(-vcc/p.floorV)
}

// FailureProb returns the per-bit hard-fault probability of the cell at
// the given supply voltage: the analytic equivalent of the Chen et al.
// importance-sampling estimate the paper uses.
func (c Cell) FailureProb(vcc float64) float64 {
	mu := c.MarginMean(vcc)
	sigma := c.MarginSigma(vcc)
	pf := QFunc(mu/sigma) + c.FailureFloor(vcc)
	if pf > 1 {
		return 1
	}
	return pf
}

// AreaRel returns the layout area of the cell relative to a minimum-size
// 6T cell.
func (c Cell) AreaRel() float64 {
	p := topoParams[c.Topo]
	return p.areaBase * (areaFixed + (1-areaFixed)*c.Size)
}

// DynCapRel returns the switched capacitance per accessed bit, relative
// to a minimum-size 6T cell. Dynamic energy per bit is DynCapRel · Vcc².
func (c Cell) DynCapRel() float64 {
	p := topoParams[c.Topo]
	return p.capBase * (capFixed + (1-capFixed)*c.Size)
}

// LeakRel returns the leakage power per bit at the given voltage,
// relative to a minimum-size 6T cell at Vnom.
func (c Cell) LeakRel(vcc float64) float64 {
	p := topoParams[c.Topo]
	return p.leakBase * (leakFixed + (1-leakFixed)*c.Size) * LeakScale(vcc)
}

// LeakScale is the voltage scaling of leakage power relative to Vnom:
// supply-proportional current with an exponential DIBL term.
func LeakScale(vcc float64) float64 {
	return (vcc / Vnom) * math.Exp((vcc-Vnom)/LeakV0)
}

// DynScale is the voltage scaling of dynamic (CV²) energy relative to Vnom.
func DynScale(vcc float64) float64 { return (vcc / Vnom) * (vcc / Vnom) }

// QFunc is the standard normal tail probability Q(x) = P(Z > x).
func QFunc(x float64) float64 { return 0.5 * math.Erfc(x/math.Sqrt2) }

// SizeFor returns the smallest size factor (quantised to SizeStep) at
// which the topology meets the target failure probability at the given
// voltage, stepping exactly as the paper's Fig. 2 loop does. The boolean
// reports whether the target is reachable at all: a topology whose
// failure floor exceeds the target can never meet it by upsizing — the
// property that disqualifies plain (uncoded) 8T cells at 350 mV.
func SizeFor(t Topology, vcc, targetPf float64) (Cell, bool) {
	for size := 1.0; size <= MaxSizeFactor+1e-9; size += SizeStep {
		c := Cell{Topo: t, Size: quantise(size)}
		if c.FailureProb(vcc) <= targetPf {
			return c, true
		}
	}
	return Cell{Topo: t, Size: MaxSizeFactor}, false
}

func quantise(size float64) float64 {
	return math.Round(size/SizeStep) * SizeStep
}

// Package core implements the paper's contribution: the hybrid-operation,
// single-Vcc-domain cache architecture in its four evaluated flavours —
// baseline and proposed designs for reliability scenarios A and B — with
// mode switching (HP ↔ ULE), way gating, per-mode EDC activation, and the
// full-system energy-per-instruction accounting behind Figures 3 and 4.
package core

import (
	"fmt"

	"edcache/internal/ecc"
	"edcache/internal/yield"
)

// Mode is one of the two operating modes of the platform.
type Mode int

const (
	// ModeHP: high or moderate voltage, all ways enabled, big
	// workloads, short duty cycle.
	ModeHP Mode = iota
	// ModeULE: near-/sub-threshold voltage, only ULE ways enabled,
	// small workloads, dominant duty cycle.
	ModeULE
)

// String names the mode as the paper does.
func (m Mode) String() string {
	if m == ModeHP {
		return "HP"
	}
	return "ULE"
}

// Design selects the baseline (Maric et al., CF 2011) or the proposed
// (this paper) cache organisation.
type Design int

const (
	// Baseline uses fault-free-sized 10T cells in the ULE ways.
	Baseline Design = iota
	// Proposed replaces them by 8T cells plus EDC.
	Proposed
)

// String names the design.
func (d Design) String() string {
	if d == Baseline {
		return "baseline"
	}
	return "proposed"
}

// Config describes one complete system configuration.
type Config struct {
	Scenario yield.Scenario
	Design   Design

	// Cache geometry (shared by IL1 and DL1, as in the paper).
	Sets      int
	Ways      int
	ULEWays   int // ways built from ULE-capable cells (paper: 1, the "7+1" split)
	LineBytes int

	// Protection granularity.
	DataWordBits int // paper: 32
	TagWordBits  int // paper: 26

	// Operating points.
	VccHP      float64 // paper: 1.0 V
	VccULE     float64 // paper: 0.35 V
	FreqHPGHz  float64 // paper: 1 GHz
	FreqULEGHz float64 // paper: 5 MHz

	MemLatency  int     // cycles (paper: "in the order of 20")
	TargetYield float64 // paper example: 0.99

	// GateULEWaysAtHP disables the ULE ways during HP mode instead of
	// reusing them. The paper argues against this (Section III-A: "ULE
	// ways are reused at HP mode, in spite of their inefficiency at
	// high Vcc, because they reduce the number of slow and
	// energy-hungry memory accesses"); the flag exists so ablation A5
	// can quantify that claim. False (reuse) is the paper's design.
	GateULEWaysAtHP bool

	// L2, when non-nil, puts a second cache level behind the L1s: both
	// L1 ports of a run feed one unified L2 (shared further across
	// cores by RunShared). nil keeps the exact single-level platform —
	// replay, timing and accounting are bit-identical to a build
	// without the field.
	L2 *L2Config
}

// L2Config is the geometry and policy of the optional second level.
// The L2 is built from HP-sized cells (it stays powered in both modes);
// its protection policy is independent of the L1's scenario coding,
// which is the knob behind ECC-in-L2-only design points.
type L2Config struct {
	Sets      int
	Ways      int
	LineBytes int // must equal the L1 line size (victim lines move verbatim)

	// Latency is the L1-miss service time from the L2 in cycles; each
	// demand fill that misses the L2 adds the full MemLatency on top.
	Latency int

	// Protection selects the level's ECC policy (none, SECDED or
	// DECTED), applied to data and tag words in both modes.
	Protection ecc.Kind
}

// maxL2Bytes caps an L2's data capacity at 512 times the 128 KB L2 of
// the hierarchy sweeps' default grid. Far beyond any geometry those
// sweeps study, it still refuses one whose tag and LRU slabs would not
// fit in memory (2^36 lines at -l2 1073741824x64).
const maxL2Bytes = 64 << 20

// Validate reports whether the L2 geometry and policy are usable
// against the owning configuration.
func (l L2Config) Validate(c Config) error {
	if l.Sets <= 0 || l.Sets&(l.Sets-1) != 0 {
		return fmt.Errorf("core: L2 sets %d not a power of two", l.Sets)
	}
	if l.Ways < 1 || l.Ways > 64 {
		return fmt.Errorf("core: L2 ways %d outside 1..64", l.Ways)
	}
	if l.LineBytes != c.LineBytes {
		return fmt.Errorf("core: L2 line size %d B must equal the L1's %d B", l.LineBytes, c.LineBytes)
	}
	// Divide rather than multiply: Sets*Ways overflows for a set count
	// near 2^62.
	if l.Sets > maxL2Bytes/l.Ways/max(l.LineBytes, 1) {
		return fmt.Errorf("core: L2 %dx%d of %d B lines exceeds the %d MiB capacity cap", l.Sets, l.Ways, l.LineBytes, maxL2Bytes>>20)
	}
	if l.Latency < 1 {
		return fmt.Errorf("core: L2 latency %d must be ≥ 1", l.Latency)
	}
	switch l.Protection {
	case ecc.KindNone, ecc.KindSECDED, ecc.KindDECTED:
	default:
		return fmt.Errorf("core: unknown L2 protection %v", l.Protection)
	}
	return nil
}

// WithL2 returns a copy of the configuration with the given second
// level — the value-copy shape grid sweeps want.
func (c Config) WithL2(l2 L2Config) Config {
	c.L2 = &l2
	return c
}

// PaperConfig returns the configuration evaluated in the paper: 8 KB
// 8-way L1s with a 7+1 way split, 32 nm operating points, 20-cycle
// memory.
func PaperConfig(s yield.Scenario, d Design) Config {
	return Config{
		Scenario:     s,
		Design:       d,
		Sets:         32,
		Ways:         8,
		ULEWays:      1,
		LineBytes:    32,
		DataWordBits: 32,
		TagWordBits:  26,
		VccHP:        1.0,
		VccULE:       0.35,
		FreqHPGHz:    1.0,
		FreqULEGHz:   0.005,
		MemLatency:   20,
		TargetYield:  0.99,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("core: sets %d not a power of two", c.Sets)
	}
	if c.Ways < 2 || c.ULEWays < 1 || c.ULEWays >= c.Ways {
		return fmt.Errorf("core: way split %d+%d invalid", c.Ways-c.ULEWays, c.ULEWays)
	}
	if c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("core: line size %d not a power of two", c.LineBytes)
	}
	if c.LineBytes*8%c.DataWordBits != 0 {
		return fmt.Errorf("core: line size %dB not a whole number of %d-bit words", c.LineBytes, c.DataWordBits)
	}
	if c.DataWordBits <= 0 || c.DataWordBits > 51 || c.TagWordBits <= 0 || c.TagWordBits > 51 {
		return fmt.Errorf("core: word widths %d/%d outside DECTED capacity", c.DataWordBits, c.TagWordBits)
	}
	if c.VccULE >= c.VccHP || c.VccULE <= 0 {
		return fmt.Errorf("core: voltages HP=%.2f ULE=%.2f invalid", c.VccHP, c.VccULE)
	}
	if c.FreqULEGHz >= c.FreqHPGHz || c.FreqULEGHz <= 0 {
		return fmt.Errorf("core: frequencies HP=%.3f ULE=%.3f invalid", c.FreqHPGHz, c.FreqULEGHz)
	}
	if c.MemLatency < 1 {
		return fmt.Errorf("core: memory latency %d invalid", c.MemLatency)
	}
	if c.TargetYield <= 0 || c.TargetYield >= 1 {
		return fmt.Errorf("core: target yield %g invalid", c.TargetYield)
	}
	if c.L2 != nil {
		if err := c.L2.Validate(c); err != nil {
			return err
		}
	}
	return nil
}

// Vcc returns the supply voltage of the given mode.
func (c Config) Vcc(m Mode) float64 {
	if m == ModeHP {
		return c.VccHP
	}
	return c.VccULE
}

// FreqGHz returns the clock frequency of the given mode.
func (c Config) FreqGHz(m Mode) float64 {
	if m == ModeHP {
		return c.FreqHPGHz
	}
	return c.FreqULEGHz
}

// WordsPerLine returns data words per cache line.
func (c Config) WordsPerLine() int { return c.LineBytes * 8 / c.DataWordBits }

// Name is a compact configuration label, e.g. "A/proposed".
func (c Config) Name() string {
	return fmt.Sprintf("%v/%v", c.Scenario, c.Design)
}

// uleWayCode returns the code family stored in the ULE ways of this
// configuration, per operating mode (Section III-B):
//
//	scenario A baseline:  none / none
//	scenario A proposed:  (SECDED stored, turned off) / SECDED
//	scenario B baseline:  SECDED / SECDED
//	scenario B proposed:  SECDED / DECTED
func (c Config) uleWayCode(m Mode) ecc.Kind {
	switch {
	case c.Design == Baseline:
		return c.Scenario.BaselineCode()
	case m == ModeULE:
		return c.Scenario.ProposedCode()
	case c.Scenario == yield.ScenarioB:
		return ecc.KindSECDED // DECTED off, SECDED-grade protection at HP
	default:
		return ecc.KindNone // scenario A proposed at HP: coding off
	}
}

// hpWayCode returns the code family active on the HP ways: SECDED in
// scenario B (soft errors), none in scenario A.
func (c Config) hpWayCode() ecc.Kind { return c.Scenario.BaselineCode() }

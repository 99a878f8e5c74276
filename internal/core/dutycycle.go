package core

import (
	"fmt"

	"edcache/internal/bench"
	"edcache/internal/bitcell"
)

// Phase is one segment of a duty-cycled execution: a workload run in one
// operating mode.
type Phase struct {
	Mode     Mode
	Workload bench.Workload
}

// ModeSwitchCost models one Vcc transition (Section III-B: "The
// processor itself is responsible for gating or ungating the
// corresponding cache ways (or corresponding EDC block) on a Vcc
// change. Overheads are negligible, as explained in [18]"). We charge
// them anyway so the claim is checkable: a voltage-regulator settle time
// plus the energy to flush dirty lines before gating.
type ModeSwitchCost struct {
	SettleNS     float64 // Vcc ramp + PLL relock time
	FlushedLines int     // dirty lines written back at the switch
	EnergyPJ     float64 // writeback + gating transition energy
}

// DutyCycleResult aggregates a multi-phase run.
type DutyCycleResult struct {
	Phases   []Report
	Switches []ModeSwitchCost

	TotalInstructions uint64
	TotalTimeNS       float64
	TotalEnergyPJ     float64
}

// AvgPowerW returns the average power over the whole schedule in watts.
func (r DutyCycleResult) AvgPowerW() float64 {
	if r.TotalTimeNS == 0 {
		return 0
	}
	return r.TotalEnergyPJ / r.TotalTimeNS * 1e-3 // pJ/ns = mW
}

// EPI returns the schedule-wide energy per instruction (pJ).
func (r DutyCycleResult) EPI() float64 {
	if r.TotalInstructions == 0 {
		return 0
	}
	return r.TotalEnergyPJ / float64(r.TotalInstructions)
}

// ScheduleRegime is one cell of a duty-cycle schedule's two-axis
// decomposition: the intersection of one schedule phase (a workload run
// in one mode) with one of that workload's phase-annotated regimes.
// Unannotated schedule phases contribute a single cell with Regime -1.
type ScheduleRegime struct {
	Schedule int    // index into DutyCycleResult.Phases
	Mode     Mode   // the schedule phase's operating mode
	Workload string // the schedule phase's workload name
	Regime   int    // workload phase id, or -1 for unannotated phases

	Instructions uint64
	TimeNS       float64
	EPI          Breakdown

	// Levels is the cell's per-level split (nil on single-level runs):
	// the duty-cycle × workload-regime × cache-level cross-reference.
	Levels []LevelEPI
}

// Decompose cross-references the schedule's mode phases with each
// workload's execution regimes: one row per (schedule phase, workload
// phase) pair, in schedule order. Instruction counts sum exactly to
// TotalInstructions; time and energy sum to the totals minus the
// mode-switch overheads (which belong to no regime — read them from
// Switches). Rows of hierarchy runs carry the per-level breakdown, so a
// duty cycle can be audited per schedule phase, per working-set regime
// and per cache level at once.
func (r DutyCycleResult) Decompose() []ScheduleRegime {
	var out []ScheduleRegime
	for i, rep := range r.Phases {
		if len(rep.Phases) == 0 {
			out = append(out, ScheduleRegime{
				Schedule: i, Mode: rep.Mode, Workload: rep.Workload, Regime: -1,
				Instructions: rep.Stats.Instructions,
				TimeNS:       rep.TimeNS,
				EPI:          rep.EPI,
				Levels:       rep.Levels,
			})
			continue
		}
		for _, ph := range rep.Phases {
			out = append(out, ScheduleRegime{
				Schedule: i, Mode: rep.Mode, Workload: rep.Workload, Regime: int(ph.Phase),
				Instructions: ph.Stats.Instructions,
				TimeNS:       ph.TimeNS,
				EPI:          ph.EPI,
				Levels:       ph.Levels,
			})
		}
	}
	return out
}

// Per-switch constants: a conservative regulator settle time and the
// gating transition energy, both of which the result reports so the
// "negligible" claim is auditable rather than assumed.
const (
	switchSettleNS   = 10_000 // 10 us Vcc ramp
	switchGateEnergy = 50.0   // pJ to (un)gate the ways and codecs
)

// RunDutyCycle executes the phases in order on this system, charging
// mode-switch costs between phases with different modes. Caches start
// cold in each phase whose mode differs from the previous one (the
// gated ways lose state; the surviving ways are flushed before gating so
// memory stays consistent — the flush writebacks are estimated from the
// previous phase's dirty-line count).
func (s *System) RunDutyCycle(phases []Phase) (DutyCycleResult, error) {
	if len(phases) == 0 {
		return DutyCycleResult{}, fmt.Errorf("core: empty duty-cycle schedule")
	}
	var out DutyCycleResult
	for i, ph := range phases {
		rep, err := s.Run(ph.Workload, ph.Mode)
		if err != nil {
			return DutyCycleResult{}, fmt.Errorf("core: phase %d (%s at %v): %w", i, ph.Workload.Name, ph.Mode, err)
		}
		out.Phases = append(out.Phases, rep)
		out.TotalInstructions += rep.Stats.Instructions
		out.TotalTimeNS += rep.TimeNS
		out.TotalEnergyPJ += rep.EPI.Total() * float64(rep.Stats.Instructions)

		if i+1 < len(phases) && phases[i+1].Mode != ph.Mode {
			sw := s.modeSwitchCost(rep)
			out.Switches = append(out.Switches, sw)
			out.TotalTimeNS += sw.SettleNS
			out.TotalEnergyPJ += sw.EnergyPJ
		}
	}
	return out, nil
}

// modeSwitchCost estimates the cost of leaving the mode the report ran
// in: dirty lines written back (approximated by the phase's write-hit
// count capped at the cache's line capacity) plus the gating energy.
func (s *System) modeSwitchCost(prev Report) ModeSwitchCost {
	capacity := s.cfg.Sets * s.cfg.Ways
	if prev.Mode == ModeULE {
		capacity = s.cfg.Sets * s.cfg.ULEWays
	}
	dirty := int(prev.Stats.Stores)
	if dirty > capacity {
		dirty = capacity
	}
	vcc := s.cfg.Vcc(prev.Mode)
	wpl := s.cfg.WordsPerLine()
	// Each flushed line is read out word by word from the array.
	d, _ := s.uleReadBits(prev.Mode)
	perLine := float64(wpl) * s.uleArray.AccessEnergy(vcc, d, 0)
	return ModeSwitchCost{
		SettleNS:     switchSettleNS,
		FlushedLines: dirty,
		EnergyPJ:     float64(dirty)*perLine + switchGateEnergy*bitcell.DynScale(vcc),
	}
}

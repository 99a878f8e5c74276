package core

import (
	"edcache/internal/bench"
	"edcache/internal/yield"
)

// Pair is the baseline/proposed outcome of one workload in one mode —
// one bar pair of Figures 3 and 4.
type Pair struct {
	Workload string
	Base     Report
	Prop     Report
}

// SavingPct returns the proposed design's EPI reduction relative to its
// baseline, in percent (positive = proposed wins).
func (p Pair) SavingPct() float64 {
	return 100 * (1 - p.Prop.EPI.Total()/p.Base.EPI.Total())
}

// TimeIncreasePct returns the proposed design's execution-time increase
// relative to its baseline, in percent.
func (p Pair) TimeIncreasePct() float64 {
	return 100 * (p.Prop.TimeNS/p.Base.TimeNS - 1)
}

// Summary aggregates a set of pairs into the averages the paper quotes.
type Summary struct {
	Scenario yield.Scenario
	Mode     Mode

	AvgBase Breakdown // mean baseline EPI (pJ/instr)
	AvgProp Breakdown // mean proposed EPI (pJ/instr)

	AvgSavingPct       float64
	AvgTimeIncreasePct float64
}

// Summarize averages the pairs. Savings are computed on averaged EPIs,
// matching the paper's "normalized average EPI" presentation.
func Summarize(s yield.Scenario, m Mode, pairs []Pair) Summary {
	out := Summary{Scenario: s, Mode: m}
	if len(pairs) == 0 {
		return out
	}
	n := float64(len(pairs))
	var timeInc float64
	for _, p := range pairs {
		out.AvgBase = addBreakdown(out.AvgBase, p.Base.EPI)
		out.AvgProp = addBreakdown(out.AvgProp, p.Prop.EPI)
		timeInc += p.TimeIncreasePct()
	}
	out.AvgBase = scaleBreakdown(out.AvgBase, 1/n)
	out.AvgProp = scaleBreakdown(out.AvgProp, 1/n)
	out.AvgSavingPct = 100 * (1 - out.AvgProp.Total()/out.AvgBase.Total())
	out.AvgTimeIncreasePct = timeInc / n
	return out
}

func addBreakdown(a, b Breakdown) Breakdown {
	return Breakdown{
		CacheDynamic: a.CacheDynamic + b.CacheDynamic,
		CacheLeakage: a.CacheLeakage + b.CacheLeakage,
		EDC:          a.EDC + b.EDC,
		Core:         a.Core + b.Core,
	}
}

func scaleBreakdown(a Breakdown, k float64) Breakdown {
	return Breakdown{
		CacheDynamic: a.CacheDynamic * k,
		CacheLeakage: a.CacheLeakage * k,
		EDC:          a.EDC * k,
		Core:         a.Core * k,
	}
}

// PaperModeWorkloads returns the suite the paper assigns to each mode:
// BigBench at HP, SmallBench at ULE (Section IV-A.1).
func PaperModeWorkloads(m Mode) []bench.Workload {
	if m == ModeHP {
		return bench.Big()
	}
	return bench.Small()
}

package experiments

import (
	"fmt"
	"math/rand"
	"strconv"

	"edcache/internal/core"
	"edcache/internal/ecc"
	"edcache/internal/energy"
	"edcache/internal/sim"
	"edcache/internal/stats"
	"edcache/internal/yield"
)

// ablationExperiments returns A1–A6, each its own registry entry so a
// driver can run one ablation in isolation (-run a3-granularity).
func ablationExperiments(o Options) []sim.Experiment {
	return []sim.Experiment{
		waySplitAblation(o),
		memLatencyAblation(o),
		granularityAblation(),
		interleavingAblation(),
		uleReuseAblation(o),
		partitioningAblation(),
	}
}

// waySplitAblation is A1: 7+1 vs 6+2 (Section IV-A).
func waySplitAblation(o Options) sim.Experiment {
	o = o.withDefaults()
	type point struct {
		ule int
		m   core.Mode
	}
	return &experiment[point]{
		name: "a1-waysplit",
		desc: "A1: way-split ablation — 7+1 vs 6+2 ULE ways (Section IV-A)",
		grid: func(add func(sim.Task, point)) {
			for _, ule := range []int{1, 2} {
				for _, m := range []core.Mode{core.ModeHP, core.ModeULE} {
					add(sim.Task{
						Label:  fmt.Sprintf("split=%d+%d mode=%v", 8-ule, ule, m),
						Params: sim.P("ule_ways", strconv.Itoa(ule), "mode", m.String()),
					}, point{ule, m})
				}
			}
		},
		run: func(p point, _ sim.Task, _ *rand.Rand) (sim.Result, error) {
			slab, err := o.slab(o.workload("adpcm_c"))
			if err != nil {
				return sim.Result{}, err
			}
			cb := core.PaperConfig(yield.ScenarioA, core.Baseline)
			cb.ULEWays = p.ule
			cp := core.PaperConfig(yield.ScenarioA, core.Proposed)
			cp.ULEWays = p.ule
			rb, rp, err := replayTwo("adpcm_c", slab, core.MustNewSystem(cb), core.MustNewSystem(cp), p.m)
			if err != nil {
				return sim.Result{}, err
			}
			return sim.Result{Metrics: []sim.Metric{
				sim.Fmt("baseline_epi", rb.EPI.Total(), "%.2f"),
				sim.Fmt("proposed_epi", rp.EPI.Total(), "%.2f"),
				sim.Fmt("saving", 100*(1-rp.EPI.Total()/rb.EPI.Total()), "%.1f%%"),
			}}, nil
		},
	}
}

// memLatencyAblation is A2: the paper claims trends are unchanged with
// memory latency.
func memLatencyAblation(o Options) sim.Experiment {
	o = o.withDefaults()
	return &experiment[int]{
		name: "a2-memlat",
		desc: "A2: memory-latency ablation — savings vs 10..80-cycle memory (paper: trends unchanged)",
		grid: func(add func(sim.Task, int)) {
			for _, lat := range []int{10, 20, 40, 80} {
				add(sim.Task{
					Label:  fmt.Sprintf("memlat=%d", lat),
					Params: sim.P("mem_latency", strconv.Itoa(lat)),
				}, lat)
			}
		},
		run: func(lat int, _ sim.Task, _ *rand.Rand) (sim.Result, error) {
			var ms []sim.Metric
			for _, m := range []core.Mode{core.ModeHP, core.ModeULE} {
				name := "gsm_c"
				if m == core.ModeULE {
					name = "adpcm_c"
				}
				slab, err := o.slab(o.workload(name))
				if err != nil {
					return sim.Result{}, err
				}
				cb := core.PaperConfig(yield.ScenarioA, core.Baseline)
				cb.MemLatency = lat
				cp := core.PaperConfig(yield.ScenarioA, core.Proposed)
				cp.MemLatency = lat
				rb, rp, err := replayTwo(name, slab, core.MustNewSystem(cb), core.MustNewSystem(cp), m)
				if err != nil {
					return sim.Result{}, err
				}
				ms = append(ms, sim.Fmt(m.String()+"_saving", 100*(1-rp.EPI.Total()/rb.EPI.Total()), "%.1f%%"))
			}
			return sim.Result{Metrics: ms}, nil
		},
	}
}

// granularityAblation is A3: EDC word granularity — check-bit overhead
// vs yield.
func granularityAblation() sim.Experiment {
	return &experiment[int]{
		name: "a3-granularity",
		desc: "A3: EDC word-granularity ablation — check-bit overhead vs yield",
		grid: func(add func(sim.Task, int)) {
			for _, bits := range []int{8, 16, 32} {
				add(sim.Task{
					Label:  fmt.Sprintf("%d-bit words", bits),
					Params: sim.P("word_bits", strconv.Itoa(bits)),
				}, bits)
			}
		},
		run: func(bitsPerWord int, _ sim.Task, _ *rand.Rand) (sim.Result, error) {
			codec, err := ecc.NewSECDEDMinimal(bitsPerWord)
			if err != nil {
				return sim.Result{}, err
			}
			words := 8192 / bitsPerWord
			gy := yield.WayGeometry{Lines: 32, WordsPerLine: words / 32, DataBits: bitsPerWord, TagBits: 26}
			y := yield.WaySurvival(1.5e-4, gy, codec.CheckBits(), 7, 1)
			overhead := float64(codec.CheckBits()) / float64(bitsPerWord)
			return sim.Result{Metrics: []sim.Metric{
				sim.Str("code", codec.Name()),
				sim.Num("check_bits", float64(codec.CheckBits())),
				sim.Fmt("storage_overhead", 100*overhead, "%.1f%%"),
				sim.Fmt("way_yield_at_1.5e-4", y, "%.5f"),
			}}, nil
		},
		finish: func(results []sim.Result, _ []int) ([]sim.Result, error) {
			results[len(results)-1].Detail = "(finer words: more overhead, higher yield; the paper's 32-bit choice balances both)\n"
			return results, nil
		},
	}
}

// interleavingAblation is A4: bit interleaving vs multi-bit upsets. At
// smaller nodes a single particle strike flips physically adjacent
// cells; compare plain SECDED(39,32) with a 4-way interleaved SECDED
// over the same 32-bit word on bursts of adjacent flips.
func interleavingAblation() sim.Experiment {
	return &experiment[int]{
		name: "a4-interleave",
		desc: "A4: bit interleaving vs multi-bit upsets (extension for deep-scaled nodes)",
		grid: func(add func(sim.Task, int)) {
			for burst := 1; burst <= 4; burst++ {
				add(sim.Task{
					Label:  fmt.Sprintf("burst=%d", burst),
					Params: sim.P("burst", strconv.Itoa(burst)),
				}, burst)
			}
		},
		run: func(burst int, _ sim.Task, _ *rand.Rand) (sim.Result, error) {
			plain, err := ecc.NewSECDED(32)
			if err != nil {
				return sim.Result{}, err
			}
			inter, err := ecc.NewInterleaved(ecc.KindSECDED, 8, 4)
			if err != nil {
				return sim.Result{}, err
			}
			return sim.Result{Metrics: []sim.Metric{
				sim.Str("plain_secded", burstOutcome(plain, burst)),
				sim.Str("interleaved_secded", burstOutcome(inter, burst)),
				sim.Num("interleaved_check_bits", float64(inter.CheckBits())),
			}}, nil
		},
		finish: func(results []sim.Result, _ []int) ([]sim.Result, error) {
			results[len(results)-1].Detail = "(interleaving buys burst correction at 4x the check-bit overhead — the natural\n" +
				" extension of the architecture for MBU-prone deep-scaled nodes)\n"
			return results, nil
		},
	}
}

// burstOutcome classifies how a codec handles every adjacent burst of
// the given length across one codeword.
func burstOutcome(c ecc.Codec, burst int) string {
	data := uint64(0xA5A5A5A5) & ecc.DataMask(c)
	cw := c.Encode(data)
	n := ecc.TotalBits(c)
	corrected, detected, silent := 0, 0, 0
	for start := 0; start+burst <= n; start++ {
		corrupted := cw
		for b := 0; b < burst; b++ {
			corrupted ^= 1 << uint(start+b)
		}
		got, res := c.Decode(corrupted)
		switch {
		case res.Status == ecc.Detected:
			detected++
		case got == data:
			corrected++
		default:
			silent++
		}
	}
	total := n - burst + 1
	switch {
	case corrected == total:
		return "corrected (all)"
	case silent > 0:
		return fmt.Sprintf("UNSAFE: %d silent", silent)
	default:
		return fmt.Sprintf("%d corrected / %d detected", corrected, detected)
	}
}

// uleReuseAblation is A5: "ULE ways are reused at HP mode, in spite of
// their inefficiency at high Vcc, because they reduce the number of
// slow and energy-hungry memory accesses" (Section III-A). The paper
// excludes memory energy from its results but justifies the reuse
// policy by the cost of memory accesses; the estimate here makes the
// trade visible (a highly-integrated few-MB memory at ~300 pJ/access).
func uleReuseAblation(o Options) sim.Experiment {
	o = o.withDefaults()
	const memAccessPJ = 300.0
	return &experiment[bool]{
		name: "a5-ulereuse",
		desc: "A5: reuse vs gate ULE ways at HP mode (Section III-A claim)",
		grid: func(add func(sim.Task, bool)) {
			add(sim.Task{Label: "reuse ULE way (paper design)", Params: sim.P("gate", "false")}, false)
			add(sim.Task{Label: "gate ULE way off at HP", Params: sim.P("gate", "true")}, true)
		},
		run: func(gate bool, _ sim.Task, _ *rand.Rand) (sim.Result, error) {
			// mpeg2_c needs more than the 7 KB of HP ways.
			slab, err := o.slab(o.workload("mpeg2_c"))
			if err != nil {
				return sim.Result{}, err
			}
			cfg := core.PaperConfig(yield.ScenarioA, core.Proposed)
			cfg.GateULEWaysAtHP = gate
			reps, err := core.RunGroupArena("mpeg2_c", slab, []core.GroupMember{{Sys: core.MustNewSystem(cfg), Mode: core.ModeHP}})
			if err != nil {
				return sim.Result{}, err
			}
			rep := reps[0]
			memEPI := memAccessPJ * float64(rep.Stats.DMisses+rep.Stats.IMisses) / float64(rep.Stats.Instructions)
			return sim.Result{Metrics: []sim.Metric{
				sim.Fmt("dl1_miss", missPct(rep.Stats.DMisses, rep.Stats.DAccesses), "%.3f%%"),
				sim.FmtU("exec_time", rep.TimeNS/1e6, "ms", "%.3f"),
				sim.FmtU("chip_epi", rep.EPI.Total(), "pJ", "%.2f"),
				sim.FmtU("with_memory_epi", rep.EPI.Total()+memEPI, "pJ", "%.2f"),
			}}, nil
		},
		finish: func(results []sim.Result, _ []bool) ([]sim.Result, error) {
			results[len(results)-1].Detail = "(gating the ULE way shrinks the HP-mode cache to 7 KB: more misses, a slower\n" +
				" reaction to the event burst, and — once memory accesses are priced in — more\n" +
				" total energy: the paper's reason to reuse the ULE ways at HP mode)\n"
			return results, nil
		},
	}
}

// partitioningAblation is A6: CACTI-style subarray partitioning of the
// ULE way. The flat model used by the main experiments is the 1x1
// point; partitioning shifts absolute energies but applies to baseline
// and proposed ways alike, so the normalized comparisons of Figs. 3–4
// are insensitive to it.
func partitioningAblation() sim.Experiment {
	return sim.Def{
		ExpName: "a6-partition",
		Desc:    "A6: CACTI-style subarray partitioning of the ULE way (model exploration)",
		RunFn: func(t sim.Task, _ *rand.Rand) (sim.Result, error) {
			sys := core.MustNewSystem(core.PaperConfig(yield.ScenarioA, core.Proposed))
			evals, best, err := energy.ExplorePartitions(sys.ULEWayArray(), 0.35, 39, 33, 16)
			if err != nil {
				return sim.Result{}, err
			}
			tb := stats.NewTable("partition (Ndwl x Ndbl)", "access energy (pJ)", "area", "leak (pJ/ns)", "")
			for i, ev := range evals {
				mark := ""
				if i == best {
					mark = "<- min energy"
				}
				tb.AddRow(fmt.Sprintf("%dx%d", ev.Part.Ndwl, ev.Part.Ndbl),
					fmt.Sprintf("%.4f", ev.Energy), f0(ev.Area), fmt.Sprintf("%.5f", ev.Leak), mark)
			}
			return sim.Result{
				Metrics: []sim.Metric{
					sim.Str("best_partition", fmt.Sprintf("%dx%d", evals[best].Part.Ndwl, evals[best].Part.Ndbl)),
					sim.NumU("best_energy", evals[best].Energy, "pJ"),
				},
				Detail: tb.String(),
			}, nil
		},
	}
}

package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"edcache/internal/core"
	"edcache/internal/sim"
	"edcache/internal/stats"
	"edcache/internal/yield"
)

// scenarioGrid is the two-task grid over reliability scenarios.
func scenarioGrid(add func(sim.Task, yield.Scenario)) {
	for _, s := range scenarios {
		add(sim.Task{Label: "scenario=" + s.String(), Params: sim.P("scenario", s.String())}, s)
	}
}

// sizingExperiment reproduces the Fig. 2 design methodology (E4).
func sizingExperiment() sim.Experiment {
	return &experiment[yield.Scenario]{
		name: "sizing",
		desc: "E4: design methodology — sized cells and the 8T+EDC loop (paper Fig. 2, Section III-C)",
		grid: scenarioGrid,
		run: func(s yield.Scenario, _ sim.Task, _ *rand.Rand) (sim.Result, error) {
			res, err := yield.Run(yield.PaperInput(s))
			if err != nil {
				return sim.Result{}, err
			}
			var b strings.Builder
			fmt.Fprintf(&b, "baseline code: %v, proposed code: %v\n", s.BaselineCode(), s.ProposedCode())
			fmt.Fprintf(&b, "Pf target (99%% yield, 8192 data bits): %.3g  [paper: 1.22e-6]\n", res.PfTarget)
			tb := stats.NewTable("array", "cell", "size", "Pf(bit)", "way yield")
			tb.AddRow("HP ways @1V", res.HPCell.Topo.String(), fmt.Sprintf("x%.2f", res.HPCell.Size),
				fmt.Sprintf("%.3g", res.HPCellPf), "-")
			tb.AddRow("ULE way baseline @350mV", res.BaselineCell.Topo.String(), fmt.Sprintf("x%.2f", res.BaselineCell.Size),
				fmt.Sprintf("%.3g", res.BaselinePf), fmt.Sprintf("%.5f", res.BaselineYield))
			tb.AddRow("ULE way proposed @350mV", res.ProposedCell.Topo.String(), fmt.Sprintf("x%.2f", res.ProposedCell.Size),
				fmt.Sprintf("%.3g", res.ProposedPf), fmt.Sprintf("%.5f", res.ProposedYield))
			b.WriteString(tb.String())
			fmt.Fprintf(&b, "plain (uncoded) 8T can reach the fault-free target: %v  [paper premise: false]\n", res.UncodedFeasible)
			fmt.Fprintf(&b, "8T+%v sizing iterations:\n", s.ProposedCode())
			it := stats.NewTable("iter", "size", "Pf(8T)", "yield", "meets baseline yield")
			for i, step := range res.Iterations {
				it.AddRow(fmt.Sprint(i+1), fmt.Sprintf("x%.2f", step.Size),
					fmt.Sprintf("%.3g", step.Pf8T), fmt.Sprintf("%.5f", step.Yield), fmt.Sprint(step.Met))
			}
			b.WriteString(it.String())
			return sim.Result{
				Metrics: []sim.Metric{
					sim.Num("pf_target", res.PfTarget),
					sim.Num("baseline_size", res.BaselineCell.Size),
					sim.Num("proposed_size", res.ProposedCell.Size),
					sim.Num("baseline_yield", res.BaselineYield),
					sim.Num("proposed_yield", res.ProposedYield),
					sim.Num("iterations", float64(len(res.Iterations))),
				},
				Detail: b.String(),
			}, nil
		},
	}
}

// yieldExperiment prints the Eq. (1)/(2) validation (E6).
func yieldExperiment() sim.Experiment {
	return sim.Def{
		ExpName: "yield",
		Desc:    "E6: yield equations — way survival vs Pf and the required-Pf solver (paper Eq. 1-2)",
		RunFn: func(t sim.Task, _ *rand.Rand) (sim.Result, error) {
			g := yield.PaperWay()
			var b strings.Builder
			fmt.Fprintf(&b, "ULE way geometry: %d data words x %d bits, %d tag words x %d bits\n",
				g.DataWords(), g.DataBits, g.TagWords(), g.TagBits)
			tb := stats.NewTable("Pf", "Y plain (tol 0)", "Y SECDED (tol 1)", "Y DECTED (tol 1)")
			for _, pf := range []float64{1e-6, 1e-5, 1e-4, 1e-3} {
				tb.AddRow(fmt.Sprintf("%.0e", pf),
					fmt.Sprintf("%.5f", yield.WaySurvival(pf, g, 0, 0, 0)),
					fmt.Sprintf("%.5f", yield.WaySurvival(pf, g, 7, 7, 1)),
					fmt.Sprintf("%.5f", yield.WaySurvival(pf, g, 13, 13, 1)))
			}
			b.WriteString(tb.String())
			required := yield.RequiredPfBits(0.99, 8192)
			fmt.Fprintf(&b, "RequiredPf(99%%, 8192 bits) = %.4g  [paper: 1.22e-6]\n", required)
			return sim.Result{
				Metrics: []sim.Metric{sim.Num("required_pf", required)},
				Detail:  b.String(),
			}, nil
		},
	}
}

// pairGrid builds the scenario × workload grid of a figure experiment.
func (o Options) pairGrid(m core.Mode) func(add func(sim.Task, pairPoint)) {
	return func(add func(sim.Task, pairPoint)) {
		for _, s := range scenarios {
			for _, w := range core.PaperModeWorkloads(m) {
				add(sim.Task{
					Label:  fmt.Sprintf("scenario=%v %s", s, w.Name),
					Params: sim.P("scenario", s.String(), "workload", w.Name),
				}, pairPoint{s: s, m: m, src: o.gen(w)})
			}
		}
	}
}

// runPairTask evaluates one (scenario, workload) bar pair, read from
// the workload's single shared replay (group.go), and attaches the Pair
// as the result payload for the Finish aggregation.
func runPairTask(o Options, pt pairPoint) (sim.Result, core.Pair, error) {
	p, err := o.pair(pt)
	if err != nil {
		return sim.Result{}, core.Pair{}, err
	}
	return sim.Result{Metrics: pairMetrics(p), Data: p}, p, nil
}

func pairMetrics(p core.Pair) []sim.Metric {
	ms := []sim.Metric{
		sim.NumU("base_epi", p.Base.EPI.Total(), "pJ/i"),
		sim.NumU("prop_epi", p.Prop.EPI.Total(), "pJ/i"),
		sim.Fmt("saving", p.SavingPct(), "%.1f%%"),
		sim.Fmt("time_increase", p.TimeIncreasePct(), "%.2f%%"),
	}
	ms = append(ms, breakdownMetrics("base", p.Base.EPI)...)
	ms = append(ms, breakdownMetrics("prop", p.Prop.EPI)...)
	return ms
}

// bars renders one normalized baseline/proposed stacked-bar pair
// (D=L1 dynamic, L=L1 leakage, E=EDC, C=core; scale = baseline total).
func bars(label string, base, prop core.Breakdown) string {
	t := base.Total()
	norm := func(b core.Breakdown) []stats.Segment {
		return []stats.Segment{
			{Rune: 'D', Value: b.CacheDynamic / t}, {Rune: 'L', Value: b.CacheLeakage / t},
			{Rune: 'E', Value: b.EDC / t}, {Rune: 'C', Value: b.Core / t},
		}
	}
	return stats.StackedBar(label+" base", norm(base), 1.0, 50) + "\n" +
		stats.StackedBar(label+" prop", norm(prop), 1.0, 50) + "\n"
}

// figureFinish appends per-scenario average rows (the paper's
// "normalized average EPI" presentation) to a figure's per-workload
// results, aggregating the attached core.Pair payloads with
// core.Summarize so the figures and the headline experiment share one
// averaging convention. paperSaving quotes the published number per
// scenario.
func figureFinish(name string, m core.Mode, paperSaving map[yield.Scenario]string, withTime bool) func([]sim.Result, []pairPoint) ([]sim.Result, error) {
	return func(results []sim.Result, points []pairPoint) ([]sim.Result, error) {
		out := results
		for _, s := range scenarios {
			var pairs []core.Pair
			for _, r := range results {
				if points[r.Task.ID].s != s {
					continue
				}
				if p, ok := r.Data.(core.Pair); ok {
					pairs = append(pairs, p)
				}
			}
			if len(pairs) == 0 {
				continue
			}
			sum := core.Summarize(s, m, pairs)
			detail := bars(fmt.Sprintf("%v average", s), sum.AvgBase, sum.AvgProp)
			detail += fmt.Sprintf("average EPI saving: %.1f%%   [paper: %s]\n", sum.AvgSavingPct, paperSaving[s])
			ms := []sim.Metric{
				sim.Fmt("avg_saving", sum.AvgSavingPct, "%.1f%%"),
				sim.Str("paper_saving", paperSaving[s]),
			}
			if withTime {
				ms = append(ms, sim.Fmt("avg_time_increase", sum.AvgTimeIncreasePct, "%.2f%%"))
				detail += fmt.Sprintf("average execution-time increase: %.2f%%   [paper: ~3%%]\n", sum.AvgTimeIncreasePct)
			}
			out = append(out, sim.Result{
				Experiment: name,
				Task: sim.Task{
					ID:     len(out),
					Label:  fmt.Sprintf("scenario=%v average", s),
					Params: sim.P("scenario", s.String(), "workload", "average"),
				},
				Metrics: ms,
				Detail:  detail,
			})
		}
		return out, nil
	}
}

// fig3Experiment regenerates Figure 3 (E1): normalized average EPI at
// HP mode over BigBench, one grid task per (scenario, workload).
func fig3Experiment(o Options) sim.Experiment {
	o = o.withDefaults()
	return &experiment[pairPoint]{
		name: "fig3",
		desc: "E1: Fig. 3 — normalized average EPI at HP mode (BigBench)",
		grid: o.pairGrid(core.ModeHP),
		run: func(pt pairPoint, _ sim.Task, _ *rand.Rand) (sim.Result, error) {
			res, _, err := runPairTask(o, pt)
			return res, err
		},
		finish: figureFinish("fig3", core.ModeHP,
			map[yield.Scenario]string{yield.ScenarioA: "14%", yield.ScenarioB: "12%"}, false),
	}
}

// fig4Experiment regenerates Figure 4 (E2): per-workload EPI breakdowns
// at ULE mode over SmallBench, bars included per task.
func fig4Experiment(o Options) sim.Experiment {
	o = o.withDefaults()
	return &experiment[pairPoint]{
		name: "fig4",
		desc: "E2: Fig. 4 — normalized EPI breakdowns at ULE mode (SmallBench)",
		grid: o.pairGrid(core.ModeULE),
		run: func(pt pairPoint, _ sim.Task, _ *rand.Rand) (sim.Result, error) {
			res, p, err := runPairTask(o, pt)
			if err != nil {
				return sim.Result{}, err
			}
			res.Detail = bars(fmt.Sprintf("%v %s", pt.s, p.Workload), p.Base.EPI, p.Prop.EPI)
			return res, nil
		},
		finish: figureFinish("fig4", core.ModeULE,
			map[yield.Scenario]string{yield.ScenarioA: "42%", yield.ScenarioB: "39%"}, true),
	}
}

// headlineExperiment prints the paper-vs-measured summary (E3). Each
// grid task is one (scenario, mode) point, its source left zero, whose
// workload suite fans out on the inner pool, each workload's pair read
// from its single shared replay (group.go).
func headlineExperiment(o Options) sim.Experiment {
	o = o.withDefaults()
	paper := map[yield.Scenario]map[core.Mode]string{
		yield.ScenarioA: {core.ModeHP: "14%", core.ModeULE: "42%"},
		yield.ScenarioB: {core.ModeHP: "12%", core.ModeULE: "39%"},
	}
	return &experiment[pairPoint]{
		name: "headline",
		desc: "E3: headline numbers — measured vs paper EPI savings and slowdowns (Section IV-B)",
		grid: func(add func(sim.Task, pairPoint)) {
			for _, s := range scenarios {
				for _, m := range modes {
					add(sim.Task{
						Label:  fmt.Sprintf("scenario=%v mode=%v", s, m),
						Params: sim.P("scenario", s.String(), "mode", m.String()),
					}, pairPoint{s: s, m: m})
				}
			}
		},
		run: func(pt pairPoint, _ sim.Task, _ *rand.Rand) (sim.Result, error) {
			s, m := pt.s, pt.m
			ws := core.PaperModeWorkloads(m)
			pairs, err := sim.Map(o.Workers, len(ws), func(i int) (core.Pair, error) {
				return o.pair(pairPoint{s: s, m: m, src: o.gen(ws[i])})
			})
			if err != nil {
				return sim.Result{}, err
			}
			sum := core.Summarize(s, m, pairs)
			wantTime := "0%"
			if m == core.ModeULE {
				wantTime = "~3%"
			}
			return sim.Result{Metrics: []sim.Metric{
				sim.Fmt("saving", sum.AvgSavingPct, "%.1f%%"),
				sim.Str("paper_saving", paper[s][m]),
				sim.Fmt("time_increase", sum.AvgTimeIncreasePct, "%.2f%%"),
				sim.Str("paper_time_increase", wantTime),
			}}, nil
		},
	}
}

// areaExperiment prints the area comparison (E5).
func areaExperiment() sim.Experiment {
	return &experiment[yield.Scenario]{
		name: "area",
		desc: "E5: area — min-size 6T bitcell equivalents per cache (Section IV-B)",
		grid: scenarioGrid,
		run: func(s yield.Scenario, _ sim.Task, _ *rand.Rand) (sim.Result, error) {
			base := core.MustNewSystem(core.PaperConfig(s, core.Baseline)).Area()
			prop := core.MustNewSystem(core.PaperConfig(s, core.Proposed)).Area()
			tb := stats.NewTable("design", "HP ways", "ULE way", "codecs", "total", "vs baseline")
			tb.AddRow("baseline", f0(base.HPWays), f0(base.ULEWays), f0(base.Codecs), f0(base.Total()), "-")
			tb.AddRow("proposed", f0(prop.HPWays), f0(prop.ULEWays), f0(prop.Codecs), f0(prop.Total()),
				stats.Pct(prop.Total()/base.Total()-1))
			detail := tb.String() + fmt.Sprintf("ULE way incl. codecs: baseline %.0f vs proposed %.0f (%s)\n",
				base.ULEWays+base.Codecs, prop.ULEWays+prop.Codecs,
				stats.Pct((prop.ULEWays+prop.Codecs)/(base.ULEWays+base.Codecs)-1))
			return sim.Result{
				Metrics: []sim.Metric{
					sim.Num("base_total", base.Total()),
					sim.Num("prop_total", prop.Total()),
					sim.Fmt("delta", 100*(prop.Total()/base.Total()-1), "%+.1f%%"),
				},
				Detail: detail,
			}, nil
		},
	}
}

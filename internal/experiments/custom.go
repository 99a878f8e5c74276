package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"edcache/internal/bench"
	"edcache/internal/bitcell"
	"edcache/internal/core"
	"edcache/internal/sim"
	"edcache/internal/stats"
	"edcache/internal/yield"
)

// NewSizing builds the cmd/sizer experiment for an arbitrary
// methodology operating point: a single-task walkthrough of the
// Section III-C / Fig. 2 design flow — required fault-free Pf, the
// 6T/10T/8T cell sizes, yields, and every iteration of the 8T+EDC loop.
func NewSizing(in yield.Input) sim.Experiment {
	return sim.Def{
		ExpName: "sizer",
		Desc:    "design methodology walkthrough for one operating point (Section III-C / Fig. 2)",
		GridFn: func() []sim.Task {
			return []sim.Task{{
				Label: fmt.Sprintf("scenario=%v vcc=%.0fmV yield=%.2f%%", in.Scenario, in.VccULE*1000, 100*in.TargetYield),
				Params: sim.P("scenario", in.Scenario.String(),
					"vcc_mv", fmt.Sprintf("%.0f", in.VccULE*1000),
					"target_yield", fmt.Sprintf("%g", in.TargetYield)),
			}}
		},
		RunFn: func(t sim.Task, _ *rand.Rand) (sim.Result, error) {
			res, err := yield.Run(in)
			if err != nil {
				return sim.Result{}, err
			}
			var b strings.Builder
			fmt.Fprintf(&b, "Step 0: fault-free Pf requirement over %d data bits: %.4g\n",
				in.Way.DataWords()*in.Way.DataBits, res.PfTarget)
			fmt.Fprintf(&b, "\nHP ways: %v sized at %.2f V -> %v (Pf %.3g)\n", bitcell.T6, in.VccHP, res.HPCell, res.HPCellPf)
			fmt.Fprintf(&b, "Baseline ULE way: %v sized at %.0f mV -> %v (Pf %.3g, yield %.5f)\n",
				bitcell.T10, in.VccULE*1000, res.BaselineCell, res.BaselinePf, res.BaselineYield)
			if res.UncodedFeasible {
				b.WriteString("NOTE: plain 8T could reach the fault-free target at this point — EDC not strictly required here.\n")
			} else {
				fmt.Fprintf(&b, "Plain (uncoded) 8T cannot reach Pf %.3g at any size (failure floor %.3g): EDC required.\n",
					res.PfTarget, bitcell.MustNew(bitcell.T8, 1).FailureFloor(in.VccULE))
			}
			fmt.Fprintf(&b, "\n8T+%v sizing loop (Fig. 2):\n", in.Scenario.ProposedCode())
			tb := stats.NewTable("iteration", "size", "Pf(8T)", "EDC-protected yield", "meets baseline")
			for i, it := range res.Iterations {
				tb.AddRow(fmt.Sprint(i+1), fmt.Sprintf("x%.2f", it.Size),
					fmt.Sprintf("%.4g", it.Pf8T), fmt.Sprintf("%.5f", it.Yield), fmt.Sprint(it.Met))
			}
			b.WriteString(tb.String())
			fmt.Fprintf(&b, "\nResult: %v with %v (Pf %.3g, yield %.5f ≥ baseline %.5f)\n",
				res.ProposedCell, in.Scenario.ProposedCode(), res.ProposedPf, res.ProposedYield, res.BaselineYield)

			c8, c10 := res.ProposedCell, res.BaselineCell
			overhead := float64(in.Way.DataBits+in.Scenario.ProposedCode().CheckBits()) / float64(in.Way.DataBits)
			fmt.Fprintf(&b, "\nPer-data-bit comparison at the sized cells (incl. %.0f%% check-bit overhead):\n", 100*(overhead-1))
			cmp := stats.NewTable("metric", "10T baseline", "8T+EDC proposed", "ratio")
			cmp.AddRow("area", f3(c10.AreaRel()), f3(c8.AreaRel()*overhead), f3(c8.AreaRel()*overhead/c10.AreaRel()))
			cmp.AddRow("dyn. capacitance", f3(c10.DynCapRel()), f3(c8.DynCapRel()*overhead), f3(c8.DynCapRel()*overhead/c10.DynCapRel()))
			cmp.AddRow("leakage @ULE", f3(c10.LeakRel(in.VccULE)), f3(c8.LeakRel(in.VccULE)*overhead), f3(c8.LeakRel(in.VccULE)*overhead/c10.LeakRel(in.VccULE)))
			b.WriteString(cmp.String())
			return sim.Result{
				Metrics: []sim.Metric{
					sim.Num("pf_target", res.PfTarget),
					sim.Num("baseline_size", res.BaselineCell.Size),
					sim.Num("proposed_size", res.ProposedCell.Size),
					sim.Num("baseline_yield", res.BaselineYield),
					sim.Num("proposed_yield", res.ProposedYield),
				},
				Detail: b.String(),
			}, nil
		},
	}
}

// HybridSpec configures a cmd/hybridsim run: one workload (or trace
// file) on one scenario/mode, across one or both designs.
type HybridSpec struct {
	Scenario     yield.Scenario
	Mode         core.Mode
	Designs      []core.Design // grid axis; two designs add a comparison row
	Workload     string        // bench name; ignored when TraceFile is set
	TraceFile    string        // replay a serialised trace instead
	Instructions int           // the workload's length; 0 selects Options' default
}

// NewHybridRun builds the cmd/hybridsim experiment: the grid is the
// design axis, each task sizes the system and replays the source's one
// slab (Options.slab), which every design shares.
func NewHybridRun(spec HybridSpec) sim.Experiment {
	o := Options{Instructions: spec.Instructions}.withDefaults()
	return &experiment[core.Design]{
		name: "hybridsim",
		desc: "one workload on one hybrid-cache configuration: timing, cache behaviour, EPI breakdown",
		grid: func(add func(sim.Task, core.Design)) {
			for _, d := range spec.Designs {
				add(sim.Task{
					Label: fmt.Sprintf("%v/%v %v", spec.Scenario, d, spec.Mode),
					Params: sim.P("scenario", spec.Scenario.String(), "design", d.String(),
						"mode", spec.Mode.String()),
				}, d)
			}
		},
		run: func(d core.Design, _ sim.Task, _ *rand.Rand) (sim.Result, error) {
			sys, err := core.NewSystem(core.PaperConfig(spec.Scenario, d))
			if err != nil {
				return sim.Result{}, err
			}
			src := source{name: spec.TraceFile, trace: spec.TraceFile}
			if spec.TraceFile == "" {
				w, err := bench.ByName(spec.Workload)
				if err != nil {
					return sim.Result{}, fmt.Errorf("%v (use -list)", err)
				}
				src = o.gen(w)
			}
			slab, err := o.slab(src)
			if err != nil {
				return sim.Result{}, err
			}
			reps, err := core.RunGroupArena(src.name, slab, []core.GroupMember{{Sys: sys, Mode: spec.Mode}})
			if err != nil {
				return sim.Result{}, err
			}
			rep := reps[0]
			siz := sys.Sizing()
			var b strings.Builder
			fmt.Fprintf(&b, "configuration %s at %v mode (%.2f V, %.0f MHz), workload %s (%d instructions)\n",
				sys.Config().Name(), spec.Mode, sys.Config().Vcc(spec.Mode), sys.Config().FreqGHz(spec.Mode)*1000,
				rep.Workload, rep.Stats.Instructions)
			fmt.Fprintf(&b, "  cells: HP ways %v | ULE way %v\n", siz.HPCell, sys.ULEWayArray().Cell)
			fmt.Fprintf(&b, "  cycles %d (CPI %.3f), time %.1f us, load-use stalls %d\n",
				rep.Stats.Cycles, rep.Stats.CPI(), rep.TimeNS/1000, rep.Stats.LoadUseStalls)
			fmt.Fprintf(&b, "  IL1 miss %.3f%%  DL1 miss %.3f%%\n",
				missPct(rep.Stats.IMisses, rep.Stats.IAccesses),
				missPct(rep.Stats.DMisses, rep.Stats.DAccesses))
			tb := stats.NewTable("EPI component", "pJ/instr", "share")
			tot := rep.EPI.Total()
			tb.AddRow("L1 dynamic", f3(rep.EPI.CacheDynamic), stats.Pct(rep.EPI.CacheDynamic/tot))
			tb.AddRow("L1 leakage", f3(rep.EPI.CacheLeakage), stats.Pct(rep.EPI.CacheLeakage/tot))
			tb.AddRow("EDC codecs", f3(rep.EPI.EDC), stats.Pct(rep.EPI.EDC/tot))
			tb.AddRow("core/other", f3(rep.EPI.Core), stats.Pct(rep.EPI.Core/tot))
			tb.AddRow("total", f3(tot), "100.0%")
			b.WriteString(tb.String())
			ms := []sim.Metric{
				sim.NumU("epi", tot, "pJ/i"),
				sim.NumU("time", rep.TimeNS, "ns"),
				sim.Fmt("cpi", rep.Stats.CPI(), "%.3f"),
			}
			ms = append(ms, breakdownMetrics("epi", rep.EPI)...)
			return sim.Result{Metrics: ms, Detail: b.String()}, nil
		},
		finish: func(results []sim.Result, _ []core.Design) ([]sim.Result, error) {
			if len(results) != 2 {
				return results, nil
			}
			be, _ := results[0].Metric("epi")
			pe, _ := results[1].Metric("epi")
			bt, _ := results[0].Metric("time")
			pt, _ := results[1].Metric("time")
			return append(results, sim.Result{
				Task: sim.Task{ID: len(results), Label: "proposed vs baseline"},
				Metrics: []sim.Metric{
					sim.Fmt("epi_delta", 100*(pe.Value/be.Value-1), "%+.1f%%"),
					sim.Fmt("time_delta", 100*(pt.Value/bt.Value-1), "%+.1f%%"),
				},
			}), nil
		},
	}
}

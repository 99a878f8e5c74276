package experiments

import (
	"fmt"
	"math/rand"
	"strconv"

	"edcache/internal/bitcell"
	"edcache/internal/sim"
	"edcache/internal/yield"
)

// sweepVoltageExperiment walks the design methodology across the
// ULE-mode voltage axis (scenario A, 99 % yield): how the sized 10T and
// 8T+EDC cells — and therefore the proposed design's advantage — move
// with the operating point. Infeasible points are reported, not
// errors — the cliff is the result.
func sweepVoltageExperiment() sim.Experiment {
	return &experiment[float64]{
		name: "sweep-voltage",
		desc: "sizing vs ULE voltage — 10T/8T cell sizes and area ratio across 300-450 mV (scenario A)",
		grid: func(add func(sim.Task, float64)) {
			for _, mv := range []float64{300, 325, 350, 375, 400, 450} {
				add(sim.Task{
					Label:  fmt.Sprintf("vcc=%.0fmV", mv),
					Params: sim.P("vcc_mv", fmt.Sprintf("%.0f", mv)),
				}, mv)
			}
		},
		run: func(mv float64, _ sim.Task, _ *rand.Rand) (sim.Result, error) {
			in := yield.PaperInput(yield.ScenarioA)
			in.VccULE = mv / 1000
			res, err := yield.Run(in)
			if err != nil {
				// Below some voltage even upsized cells cannot meet the
				// target; report and continue — that cliff is the point.
				return sim.Result{Metrics: []sim.Metric{sim.Str("feasible", "infeasible")}}, nil
			}
			ratio := res.ProposedCell.AreaRel() * 39 / 32 / res.BaselineCell.AreaRel()
			return sim.Result{Metrics: []sim.Metric{
				sim.Str("feasible", "yes"),
				sim.Fmt("size_10t", res.BaselineCell.Size, "x%.2f"),
				sim.Fmt("size_8t", res.ProposedCell.Size, "x%.2f"),
				sim.Fmt("area_per_bit_vs_10t", ratio, "%.2f"),
				sim.Num("iterations", float64(len(res.Iterations))),
			}}, nil
		},
	}
}

// sweepYieldExperiment walks the methodology across the yield-target
// axis at 350 mV. Very aggressive targets push the Pf requirement below
// the 6T failure floor — a real feasibility cliff (the fix would be
// coding the HP ways too).
func sweepYieldExperiment() sim.Experiment {
	return &experiment[float64]{
		name: "sweep-yieldtarget",
		desc: "sizing vs yield target — Pf requirement and cell sizes across 90-99.9% (scenario A, 350 mV)",
		grid: func(add func(sim.Task, float64)) {
			for _, y := range []float64{0.90, 0.95, 0.99, 0.995, 0.999} {
				add(sim.Task{
					Label:  fmt.Sprintf("yield=%.1f%%", y*100),
					Params: sim.P("target_yield", fmt.Sprintf("%g", y)),
				}, y)
			}
		},
		run: func(y float64, _ sim.Task, _ *rand.Rand) (sim.Result, error) {
			in := yield.PaperInput(yield.ScenarioA)
			in.TargetYield = y
			res, err := yield.Run(in)
			if err != nil {
				return sim.Result{Metrics: []sim.Metric{sim.Str("feasible", "infeasible: "+err.Error())}}, nil
			}
			return sim.Result{Metrics: []sim.Metric{
				sim.Str("feasible", "yes"),
				sim.Fmt("pf_target", res.PfTarget, "%.3g"),
				sim.Fmt("size_10t", res.BaselineCell.Size, "x%.2f"),
				sim.Fmt("size_8t", res.ProposedCell.Size, "x%.2f"),
			}}, nil
		},
	}
}

// mcSamplingExperiment demonstrates why the methodology needs
// importance sampling (Chen et al., ICCAD 2007): naive Monte-Carlo
// cannot see a 1e-6 tail at practical sample counts (1e3, 1e4 and 1e5
// here, about 8 ms in all), the mean-shifted
// estimator resolves it with a few thousand samples. The importance-
// sampling estimate runs on the sharded parallel estimator, so this
// experiment also exercises the engine's worker-count invariance.
func mcSamplingExperiment(o Options) sim.Experiment {
	return &experiment[int]{
		name: "mc-sampling",
		desc: "naive Monte-Carlo vs mean-shift importance sampling at the paper's Pf magnitudes",
		grid: func(add func(sim.Task, int)) {
			for _, n := range []int{1_000, 10_000, 100_000} {
				add(sim.Task{
					Label:  fmt.Sprintf("samples=%d", n),
					Params: sim.P("samples", strconv.Itoa(n)),
				}, n)
			}
		},
		run: func(n int, t sim.Task, _ *rand.Rand) (sim.Result, error) {
			cell := bitcell.MustNew(bitcell.T10, 2.60)
			naive := bitcell.NaiveMonteCarloFailureProb(cell, 0.35, n, t.Seed)
			is := bitcell.MonteCarloFailureProbN(cell, 0.35, n, t.Seed, o.Workers)
			return sim.Result{Metrics: []sim.Metric{
				sim.Fmt("naive_mc", naive.Pf, "%.3g"),
				sim.Fmt("importance_sampling", is.Pf, "%.4g"),
				sim.Fmt("is_stderr", is.StdErr, "%.2g"),
				sim.Fmt("analytic", is.Analytic, "%.4g"),
			}}, nil
		},
		finish: func(results []sim.Result, _ []int) ([]sim.Result, error) {
			results[len(results)-1].Detail = "(naive sampling cannot see a 1e-6 tail at these sample counts; the\n" +
				" mean-shifted estimator resolves it with a few thousand samples)\n"
			return results, nil
		},
	}
}

package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"edcache/internal/core"
	"edcache/internal/faults"
	"edcache/internal/sim"
	"edcache/internal/stats"
	"edcache/internal/wcet"
	"edcache/internal/yield"
)

// reliabilityExperiment runs the Monte-Carlo yield-equivalence campaign
// (E7): one grid task per (scenario, design), each fanning its silicon
// samples across the inner trial pool.
func reliabilityExperiment(o Options) sim.Experiment {
	o = o.withDefaults()
	type point struct {
		s yield.Scenario
		d core.Design
	}
	return &experiment[point]{
		name: "reliability",
		desc: "E7: reliability equivalence — Monte-Carlo fault campaigns vs analytic yield (Eq. 2)",
		grid: func(add func(sim.Task, point)) {
			for _, s := range scenarios {
				for _, d := range []core.Design{core.Baseline, core.Proposed} {
					add(sim.Task{
						Label:  fmt.Sprintf("scenario=%v %v", s, d),
						Params: sim.P("scenario", s.String(), "design", d.String()),
					}, point{s, d})
				}
			}
		},
		run: func(p point, t sim.Task, _ *rand.Rand) (sim.Result, error) {
			res, err := o.sizing(p.s)
			if err != nil {
				return sim.Result{}, err
			}
			// Baseline dies carry the baseline code's check bits and
			// tolerate no hard fault per word; proposed dies carry the
			// proposed code's and tolerate one.
			check := p.s.BaselineCode().CheckBits()
			pf, tolerable, analytic := res.BaselinePf, 0, res.BaselineYield
			if p.d == core.Proposed {
				check = p.s.ProposedCode().CheckBits()
				pf, tolerable, analytic = res.ProposedPf, 1, res.ProposedYield
			}
			c := faults.Campaign{
				Geometry: faults.WayGeometry{
					Lines: 32, WordsPerLine: 8,
					DataWordBits: 32 + check, TagWordBits: 26 + check,
				},
				Pf:        pf,
				Trials:    o.Trials,
				Tolerable: tolerable,
			}
			mc, err := c.Run(t.Seed, o.Workers)
			if err != nil {
				return sim.Result{}, err
			}
			return sim.Result{Metrics: []sim.Metric{
				sim.Num("trials", float64(mc.Trials)),
				sim.Fmt("mc_yield", mc.Yield(), "%.4f"),
				sim.Fmt("analytic_yield", analytic, "%.4f"),
			}}, nil
		},
	}
}

// wcetExperiment is E8: the predictability argument of Sections I–II
// made quantitative. The paper rejects fault-disabling schemes because
// disabled entries are die-dependent, so a WCET bound must assume
// worst-case fault placement; the EDC design instead pays a small
// deterministic latency. Analysed on the ULE-mode cache (32 sets × 1
// way) with a cache-fitting critical loop.
func wcetExperiment() sim.Experiment {
	return sim.Def{
		ExpName: "wcet",
		Desc:    "E8: WCET predictability — deterministic EDC latency vs faulty-entry disabling",
		RunFn: func(t sim.Task, _ *rand.Rand) (sim.Result, error) {
			body := make([]wcet.Access, 8)
			for i := range body {
				body[i] = wcet.Access{Line: uint32(i)}
			}
			loop := wcet.Loop{Name: "critical-kernel", Body: body, Iterations: 1000, NonMemCycles: 24}
			spec := wcet.CacheSpec{Sets: 32, Ways: 1, HitLatency: 1, MissLatency: 20}

			base, err := wcet.Analyze(spec, loop)
			if err != nil {
				return sim.Result{}, err
			}
			edcSpec := spec
			edcSpec.HitLatency = 2
			edc, err := wcet.Analyze(edcSpec, loop)
			if err != nil {
				return sim.Result{}, err
			}
			curve, err := wcet.InflationCurve(spec, loop, 8)
			if err != nil {
				return sim.Result{}, err
			}

			var b strings.Builder
			fmt.Fprintf(&b, "critical loop: %d refs/iteration, %d iterations, ULE-mode cache 32x1\n",
				len(body), loop.Iterations)
			tb := stats.NewTable("design", "WCET bound (cycles)", "vs fault-free", "die-dependent?")
			tb.AddRow("fault-free (10T baseline / 8T+EDC data)", fmt.Sprint(base.WCETCycles), "-", "no")
			tb.AddRow("proposed: +1 EDC cycle", fmt.Sprint(edc.WCETCycles),
				stats.Pct(float64(edc.WCETCycles)/float64(base.WCETCycles)-1), "no")
			for _, f := range []int{1, 2, 4, 7} {
				w := uint64(float64(base.WCETCycles) * curve[f])
				tb.AddRow(fmt.Sprintf("disabling, %d worst-case faulty lines", f),
					fmt.Sprint(w), stats.Pct(curve[f]-1), "YES")
			}
			b.WriteString(tb.String())
			b.WriteString("(the EDC bound conservatively charges every access the extra cycle — the measured\n" +
				" average slowdown is only ~3% — and it is deterministic across dies; 7 faulty lines\n" +
				" ≈ the expected fault count of a plain min-size 8T way at 350 mV, and the disabling\n" +
				" bound both explodes and varies per die — the paper's reason to reject entry\n" +
				" disabling for critical applications)\n")
			return sim.Result{
				Metrics: []sim.Metric{
					sim.NumU("wcet_base", float64(base.WCETCycles), "cycles"),
					sim.NumU("wcet_edc", float64(edc.WCETCycles), "cycles"),
					sim.Fmt("edc_inflation", 100*(float64(edc.WCETCycles)/float64(base.WCETCycles)-1), "%+.1f%%"),
				},
				Detail: b.String(),
			}, nil
		},
	}
}

// serExperiment is E9: the soft-error side of scenario B's "same
// reliability levels" claim. The proposed 8T+DECTED way has words whose
// correction budget is partly consumed by a hard fault; the DUE rate
// under a Poisson soft-error process with periodic scrubbing must not
// regress the 10T+SECDED baseline's.
func serExperiment(o Options) sim.Experiment {
	const (
		words  = 256 + 32
		lambda = 1e-13 // soft errors / bit / second (SER-class magnitude)
	)
	o = o.withDefaults()
	return &experiment[float64]{
		name: "ser",
		desc: "E9: soft-error MTTF at ULE mode, scenario B (DECTED vs SECDED, scrub-interval sweep)",
		grid: func(add func(sim.Task, float64)) {
			for _, scrub := range []float64{60, 3600, 86400} {
				add(sim.Task{
					Label:  fmt.Sprintf("scrub=%.0fs", scrub),
					Params: sim.P("scrub_s", fmt.Sprintf("%.0f", scrub)),
				}, scrub)
			}
		},
		run: func(scrub float64, _ sim.Task, _ *rand.Rand) (sim.Result, error) {
			res, err := o.sizing(yield.ScenarioB)
			if err != nil {
				return sim.Result{}, err
			}
			// Expected hard-faulty words of the sized 8T way: words ×
			// P(word has ≥1 fault) ≈ words · n · Pf.
			expFaulty := int(math.Round(words * 45 * res.ProposedPf))
			base := []faults.WordClass{{Count: words, Bits: 39, TolerableSoft: 1}}
			prop := []faults.WordClass{
				{Count: words - expFaulty, Bits: 45, TolerableSoft: 2},
				{Count: expFaulty, Bits: 45, TolerableSoft: 1},
			}
			rb, err := faults.DUERate(base, lambda, scrub)
			if err != nil {
				return sim.Result{}, err
			}
			rp, err := faults.DUERate(prop, lambda, scrub)
			if err != nil {
				return sim.Result{}, err
			}
			return sim.Result{Metrics: []sim.Metric{
				sim.Num("hard_faulty_words", float64(expFaulty)),
				sim.Fmt("baseline_mttf_years", faults.MTTFYears(rb), "%.2e"),
				sim.Fmt("proposed_mttf_years", faults.MTTFYears(rp), "%.2e"),
			}}, nil
		},
		finish: func(results []sim.Result, _ []float64) ([]sim.Result, error) {
			results[len(results)-1].Detail = "(the DECTED design's clean words survive two accumulated soft errors vs the\n" +
				" baseline's one, which more than covers the few words whose budget a hard fault\n" +
				" consumes — the proposed design does not regress soft-error reliability)\n"
			return results, nil
		},
	}
}

package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"edcache/internal/bench"
	"edcache/internal/sim"
)

// phaseEPIExperiment is the phase-aware experiment family: for every
// phase-annotated corpus workload it segments EPI and miss rate per
// working-set regime (phase id) instead of per run — the view a
// run-level average hides exactly when the working set shifts
// mid-stream. Each task reports baseline and proposed EPI per phase,
// the per-phase saving, and the per-phase DL1 miss rate, read from the
// source's single shared replay (group.go) — usually already run by
// corpus. Options.TraceFiles adds captured phase-annotated traces
// (tracegen -phases output) as further grid points — recorded streams
// as first-class sweep inputs. A named file without phase annotations
// reports "phases: none" rather than failing the sweep, without
// replaying it.
func phaseEPIExperiment(o Options) sim.Experiment {
	o = o.withDefaults()
	return &experiment[pairPoint]{
		name: "phase-epi",
		desc: "phase-segmented corpus sweep — EPI, saving and miss rate per working-set regime of every phase-annotated workload (and any -trace file)",
		grid: func(add func(sim.Task, pairPoint)) {
			traceNames := traceSourceNames(o.TraceFiles)
			for _, s := range scenarios {
				for _, m := range modes {
					for _, w := range bench.Full() {
						if !w.HasPhases() {
							continue
						}
						add(sim.Task{
							Label: fmt.Sprintf("scenario=%v %v %s", s, m, w.Name),
							Params: sim.P("scenario", s.String(), "mode", m.String(),
								"workload", w.Name, "pattern", w.Pattern.String()),
						}, pairPoint{s: s, m: m, src: o.gen(w)})
					}
					for _, tf := range o.TraceFiles {
						add(sim.Task{
							Label: fmt.Sprintf("scenario=%v %v %s", s, m, traceNames[tf]),
							Params: sim.P("scenario", s.String(), "mode", m.String(),
								"workload", traceNames[tf], "trace", tf, "pattern", "trace"),
						}, pairPoint{s: s, m: m, src: source{name: traceNames[tf], trace: tf}})
					}
				}
			}
		},
		run: func(pt pairPoint, _ sim.Task, _ *rand.Rand) (sim.Result, error) {
			if pt.src.trace != "" {
				slab, err := o.slab(pt.src)
				if err != nil {
					return sim.Result{}, err
				}
				if !slab.HasPhases() {
					return sim.Result{Metrics: []sim.Metric{
						sim.Str("phases", "none (file carries no phase annotations; write it with tracegen -phases)"),
					}}, nil
				}
			}
			p, err := o.pair(pt)
			if err != nil {
				return sim.Result{}, err
			}
			rb, rp := p.Base, p.Prop
			if len(rp.Phases) == 0 || len(rb.Phases) != len(rp.Phases) {
				return sim.Result{}, fmt.Errorf("experiments: %s reported %d/%d phase segments", p.Workload, len(rb.Phases), len(rp.Phases))
			}
			ms := []sim.Metric{
				sim.NumU("run_base_epi", rb.EPI.Total(), "pJ/i"),
				sim.NumU("run_prop_epi", rp.EPI.Total(), "pJ/i"),
			}
			var detail strings.Builder
			fmt.Fprintf(&detail, "  %-6s %12s %12s %12s %9s %9s\n",
				"phase", "instr", "base pJ/i", "prop pJ/i", "saving", "dl1 miss")
			for i, pp := range rp.Phases {
				pb := rb.Phases[i]
				saving := 100 * (1 - pp.EPI.Total()/pb.EPI.Total())
				missRate := missPct(pp.Stats.DMisses, pp.Stats.DAccesses)
				pfx := fmt.Sprintf("p%d", pp.Phase)
				ms = append(ms,
					sim.NumU(pfx+"_base_epi", pb.EPI.Total(), "pJ/i"),
					sim.NumU(pfx+"_prop_epi", pp.EPI.Total(), "pJ/i"),
					sim.Fmt(pfx+"_saving", saving, "%.1f%%"),
					sim.Fmt(pfx+"_dl1_miss", missRate, "%.3f%%"),
				)
				fmt.Fprintf(&detail, "  %-6s %12d %12.1f %12.1f %8.1f%% %8.3f%%\n",
					pfx, pp.Stats.Instructions, pb.EPI.Total(), pp.EPI.Total(), saving, missRate)
			}
			return sim.Result{Metrics: ms, Detail: detail.String()}, nil
		},
	}
}

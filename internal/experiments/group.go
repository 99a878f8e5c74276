package experiments

import (
	"fmt"
	"slices"

	"edcache/internal/core"
	"edcache/internal/sim"
	"edcache/internal/trace"
	"edcache/internal/yield"
)

// One replay per source. Every experiment that replays a source — fig3,
// fig4, headline, corpus, phase-epi, hier-epi and shared-l2 — reads its
// reports from one run-wide memo (Options.replays) keyed by source: a
// workload name, or a trace file. The first request for a source
// replays it once, as one core.RunGroupArena pass. A paper source has 8
// members, [A, B] × [HP, ULE] × [baseline, proposed]. The paper's two
// scenarios share the L1 geometry and the designs share cache state at
// equal mode, so that pass simulates 2 caches per side and tallies each
// once (core/multi.go). A hier source is a workload behind every
// Options.L2Geometries × l2Protections design point at HP (hier.go).
// Every later request, from any experiment, mode or scenario, is a
// lookup. A Report never depends on the group it was replayed in, so
// the bytes of each experiment are those of its members replayed alone,
// whichever experiment ran first.

// source identifies one replay source of the memo.
type source struct {
	name  string // report label: the workload name, or the trace file's sweep label
	trace string // file path for trace-backed sources, "" otherwise
	hier  bool   // the workload's hierarchy group, not its paper group
}

// newSystems returns the memo of sized baseline/proposed pairs, one
// per scenario. A System is immutable and serves concurrent replays.
func newSystems() *sim.Shared[yield.Scenario, [2]*core.System] {
	return sim.NewShared(func(s yield.Scenario) ([2]*core.System, error) {
		base, err := core.NewSystem(core.PaperConfig(s, core.Baseline))
		if err != nil {
			return [2]*core.System{}, err
		}
		prop, err := core.NewSystem(core.PaperConfig(s, core.Proposed))
		return [2]*core.System{base, prop}, err
	})
}

// replayGroup is the memo's build: the source's single replay. A paper
// group's reports are ordered scenario-major, then mode, then
// [baseline, proposed]; a hier group's geometry-major, then protection.
func (o Options) replayGroup(src source) ([]core.Report, error) {
	var arena trace.Slab
	var err error
	if src.trace != "" {
		arena, err = o.fileArenas.Get(src.trace)
	} else {
		_, arena, err = o.workloadArena(src.name)
	}
	if err != nil {
		return nil, err
	}
	var members []core.GroupMember
	if src.hier {
		for _, g := range o.L2Geometries {
			for _, p := range l2Protections {
				sys, err := core.NewSystem(hierConfig(g, o.L2Latency, p.kind))
				if err != nil {
					return nil, err
				}
				members = append(members, core.GroupMember{Sys: sys, Mode: core.ModeHP})
			}
		}
		return core.RunGroupArena(src.name, arena, members)
	}
	for _, s := range scenarios {
		sys, err := o.systems.Get(s)
		if err != nil {
			return nil, err
		}
		for _, m := range modes {
			members = append(members, core.GroupMember{Sys: sys[0], Mode: m}, core.GroupMember{Sys: sys[1], Mode: m})
		}
	}
	return core.RunGroupArena(src.name, arena, members)
}

// pair returns the source's baseline/proposed pair in one scenario and
// mode, triggering the source's single replay on first use.
func (o Options) pair(src source, s yield.Scenario, m core.Mode) (core.Pair, error) {
	reps, err := o.replays.Get(src)
	if err != nil {
		return core.Pair{}, fmt.Errorf("experiments: %s group: %w", src.name, err)
	}
	i := 2 * (len(modes)*slices.Index(scenarios, s) + slices.Index(modes, m))
	return core.Pair{Workload: src.name, Base: reps[i], Prop: reps[i+1]}, nil
}

// taskPair is pair for a grid task: its "scenario", its "workload"
// label and, for file-backed points, its "trace" path.
func (o Options) taskPair(t sim.Task, m core.Mode) (core.Pair, error) {
	s, err := taskScenario(t)
	if err != nil {
		return core.Pair{}, err
	}
	return o.pair(source{name: t.Params["workload"], trace: t.Params["trace"]}, s, m)
}

// replayTwo replays two systems in one mode as a single-pass group over
// the slab and returns their reports in order.
func replayTwo(name string, slab trace.Slab, a, b *core.System, m core.Mode) (ra, rb core.Report, err error) {
	reps, err := core.RunGroupArena(name, slab, []core.GroupMember{{Sys: a, Mode: m}, {Sys: b, Mode: m}})
	if err != nil {
		return core.Report{}, core.Report{}, err
	}
	return reps[0], reps[1], nil
}

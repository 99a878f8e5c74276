package experiments

import (
	"fmt"
	"slices"

	"edcache/internal/bench"
	"edcache/internal/core"
	"edcache/internal/sim"
	"edcache/internal/trace"
	"edcache/internal/yield"
)

// One replay per source. Every experiment that replays a source — fig3,
// fig4, headline, corpus, phase-epi, hier-epi and shared-l2 — reads its
// reports from one run-wide memo (Options.replays) keyed by source: a
// generator, or a trace file. The first request for a source replays
// its slab (Options.slab) once, as one core.RunGroupArena pass. A
// paper source has 8 members, [A, B] × [HP, ULE] × [baseline,
// proposed]. The paper's two scenarios share the L1 geometry and the
// designs share cache state at equal mode, so that pass simulates 2
// caches per side and tallies each once (core/multi.go). A hier
// source is a workload behind every
// Options.L2Geometries × l2Protections design point at HP (hier.go).
// Every later request, from any experiment, mode or scenario, is a
// lookup. A Report never depends on the group it was replayed in, so
// the bytes of each experiment are those of its members replayed alone,
// whichever experiment ran first.

// source is one stream the run reads: a generator at its trace length,
// or a trace file.
type source struct {
	name  string         // report label: the workload name, or the trace file's sweep label
	trace string         // trace file path; "" for a generator
	w     bench.Workload // the generator at its trace length; zero for a trace file
	hier  bool           // replay memo only: the workload's hierarchy group, not its paper group
}

// slab returns the source's stream as a shared slab, and is the only
// way a grid point opens one. The run's one slab memo (Options.slabs)
// is keyed by what the stream is made of — the trace path, or the
// generator at its trace length — so each file is decoded (or mapped)
// and each generator run at most once per run, whichever experiments,
// labels and groups read it.
//
// A source that exactly one pass reads skips the memo: corpus-miss's
// calibrated instances, each read only by its stack-distance profile,
// stream from their generator (src.w.Stream()) instead of
// materialising a slab the run would keep.
func (o Options) slab(src source) (trace.Slab, error) {
	return o.slabs.Get(source{trace: src.trace, w: src.w})
}

// openSlab is the slab memo's build.
func (o Options) openSlab(src source) (trace.Slab, error) {
	if src.trace != "" {
		return trace.OpenSlab(src.trace, o.MapThreshold)
	}
	return trace.NewArena(src.w.Stream(), src.w.Instructions), nil
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

// sizing returns scenario s's design-methodology run, read from the
// memo's sized pair: the paper configuration's input (yield.PaperInput)
// does not depend on the design, so both systems carry the same run.
func (o Options) sizing(s yield.Scenario) (yield.Result, error) {
	sys, err := o.systems.Get(s)
	if err != nil {
		return yield.Result{}, err
	}
	return sys[0].Sizing(), nil
}

// replayGroup is the memo's build: the source's single replay. A paper
// group's reports are ordered scenario-major, then mode, then
// [baseline, proposed]; a hier group's geometry-major, then protection.
func (o Options) replayGroup(src source) ([]core.Report, error) {
	arena, err := o.slab(src)
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

// pairPoint is one scenario and mode of one source: the grid point of
// every experiment that reads a baseline/proposed pair.
type pairPoint struct {
	s   yield.Scenario
	m   core.Mode
	src source
}

// pair returns the point's baseline/proposed pair, triggering the
// source's single replay on first use.
func (o Options) pair(p pairPoint) (core.Pair, error) {
	reps, err := o.replays.Get(p.src)
	if err != nil {
		return core.Pair{}, fmt.Errorf("experiments: %s group: %w", p.src.name, err)
	}
	i := 2 * (len(modes)*slices.Index(scenarios, p.s) + slices.Index(modes, p.m))
	return core.Pair{Workload: p.src.name, Base: reps[i], Prop: reps[i+1]}, nil
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

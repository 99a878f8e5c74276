package experiments

import (
	"fmt"

	"edcache/internal/core"
	"edcache/internal/sim"
	"edcache/internal/trace"
	"edcache/internal/yield"
)

// groupKey identifies one (scenario, replay source) group of corpus
// grid points: the four design×mode evaluations that share a single
// arena pass.
type groupKey struct {
	scenario yield.Scenario
	workload string
	trace    string // file path for trace-backed sources, "" otherwise
}

// groupReports is one group's outcome, ordered [baseline, proposed] ×
// [HP, ULE].
type groupReports [4]core.Report

// pairGroups memoizes single-pass design×mode replays per (scenario,
// source): the first grid task that needs any member of a group runs
// the whole group through core.RunGroupArena once, and every other
// task of the same group — the other mode, concurrent or later — reads
// its pair out of the shared result. Combined with the bank's
// simulator dedup (designs share cache state at equal mode), a
// scenario's four corpus grid points cost roughly one replay where
// they used to cost four.
type pairGroups struct {
	o       Options
	systems *sharedSystems
	shared  *sim.Shared[groupKey, groupReports]
}

func newPairGroups(o Options, systems *sharedSystems) *pairGroups {
	g := &pairGroups{o: o, systems: systems}
	g.shared = sim.NewShared(g.build)
	return g
}

// build runs one group: both designs at both modes over the key's
// shared arena, in a single pass.
func (g *pairGroups) build(k groupKey) (groupReports, error) {
	var name string
	var arena trace.Slab
	var err error
	if k.trace != "" {
		name = k.workload
		arena, err = g.o.fileArenas.Get(k.trace)
	} else {
		_, arena, err = g.o.workloadArena(k.workload)
		name = k.workload
	}
	if err != nil {
		return groupReports{}, err
	}
	base, prop, err := g.systems.get(k.scenario)
	if err != nil {
		return groupReports{}, err
	}
	reps, err := core.RunGroupArena(name, arena, []core.GroupMember{
		{Sys: base, Mode: core.ModeHP}, {Sys: prop, Mode: core.ModeHP},
		{Sys: base, Mode: core.ModeULE}, {Sys: prop, Mode: core.ModeULE},
	})
	if err != nil {
		return groupReports{}, err
	}
	return groupReports(reps), nil
}

// pair returns the group's baseline/proposed pair for one mode,
// triggering the group's single replay on first use.
func (g *pairGroups) pair(k groupKey, m core.Mode) (core.Pair, error) {
	reps, err := g.shared.Get(k)
	if err != nil {
		return core.Pair{}, fmt.Errorf("experiments: %s group: %w", k.workload, err)
	}
	i := 0
	if m == core.ModeULE {
		i = 2
	}
	return core.Pair{Workload: reps[i].Workload, Base: reps[i], Prop: reps[i+1]}, nil
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

// replayOne replays one system alone over the slab.
func replayOne(name string, slab trace.Slab, sys *core.System, m core.Mode) (core.Report, error) {
	reps, err := core.RunGroupArena(name, slab, []core.GroupMember{{Sys: sys, Mode: m}})
	if err != nil {
		return core.Report{}, err
	}
	return reps[0], nil
}

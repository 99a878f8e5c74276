package experiments

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"

	"edcache/internal/core"
	"edcache/internal/ecc"
	"edcache/internal/sim"
	"edcache/internal/trace"
)

// The hierarchy experiments sweep the optional second cache level: how
// much of the L1 miss cost an L2 absorbs per workload (hier-epi, with
// per-level energy attribution), and what two cores contending for one
// shared L2 cost each other (shared-l2). Both sweep Options.L2Geometries
// at Options.L2Latency and read their tiered reports from the
// workload's hier group in the run-wide replay memo (group.go).

// L2Geometry is one swept second-level shape; the line size is always
// the L1's.
type L2Geometry struct {
	Sets, Ways int
}

// String formats the geometry as the grid and the -l2 flag spell it.
func (g L2Geometry) String() string { return fmt.Sprintf("%dx%d", g.Sets, g.Ways) }

// ParseL2Geometries parses a comma-separated "SETSxWAYS,..." list, the
// cmd/experiments -l2 flag syntax. A geometry may appear once, so its
// index on the list names one axis point.
func ParseL2Geometries(spec string) ([]L2Geometry, error) {
	var out []L2Geometry
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		sets, ways, ok := strings.Cut(part, "x")
		g := L2Geometry{}
		var err error
		if g.Sets, err = strconv.Atoi(sets); err != nil || !ok {
			return nil, fmt.Errorf("experiments: bad L2 geometry %q (want SETSxWAYS)", part)
		}
		if g.Ways, err = strconv.Atoi(ways); err != nil {
			return nil, fmt.Errorf("experiments: bad L2 geometry %q (want SETSxWAYS)", part)
		}
		// Refuse a shape the hierarchy cannot build now, not when the
		// first hier-epi task does. Latency and protection are not part
		// of the geometry, so the smallest valid ones stand in.
		cfg := hierConfig(g, 1, ecc.KindNone)
		if err := cfg.L2.Validate(cfg); err != nil {
			return nil, fmt.Errorf("experiments: bad L2 geometry %q: %w", part, err)
		}
		if slices.Contains(out, g) {
			return nil, fmt.Errorf("experiments: L2 geometry %v repeated in %q", g, spec)
		}
		out = append(out, g)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("experiments: empty L2 geometry list %q", spec)
	}
	return out, nil
}

// l2Protections is the protection-policy axis of hier-epi.
var l2Protections = []struct {
	name string
	kind ecc.Kind
}{
	{"none", ecc.KindNone},
	{"secded", ecc.KindSECDED},
	{"dected", ecc.KindDECTED},
}

// hierWorkloads spans the corpus regimes the hierarchy differentiates:
// an L1-resident benchmark, a pointer chase, a streaming stencil, the
// phase-shifting mix and the L1-adversarial sweep.
var hierWorkloads = []string{"gsm_c", "ptrchase_l", "stencil_dsp", "phased_mix", "adversarial_l1"}

// hierConfig is the platform both hierarchy experiments sweep: the
// scenario-A proposed L1s over one L2 of the given shape and policy.
func hierConfig(g L2Geometry, latency int, prot ecc.Kind) core.Config {
	return core.PaperConfig(scenarios[0], core.Proposed).WithL2(core.L2Config{
		Sets: g.Sets, Ways: g.Ways, LineBytes: 32, Latency: latency, Protection: prot,
	})
}

// hierReport returns the workload's tiered report at geometry gi of
// Options.L2Geometries and protection pi of l2Protections, triggering
// the workload's hier group replay on first use.
func (o Options) hierReport(src source, gi, pi int) (core.Report, error) {
	src.hier = true
	reps, err := o.replays.Get(src)
	if err != nil {
		return core.Report{}, fmt.Errorf("experiments: %s hier group: %w", src.name, err)
	}
	return reps[gi*len(l2Protections)+pi], nil
}

// hierEPIExperiment sweeps L2 geometry × protection × workload on the
// scenario-A proposed design at HP and attributes the run per cache
// level: each level's EPI share, traffic and stall time, plus the
// whole-run EPI and cycle delta against the single-level platform.
func hierEPIExperiment(o Options) sim.Experiment {
	o = o.withDefaults()
	type point struct {
		gi, pi int // indices on Options.L2Geometries and l2Protections
		src    source
	}
	return &experiment[point]{
		name: "hier-epi",
		desc: "two-level hierarchy sweep — per-level EPI, traffic and stall breakdown across L2 geometry × protection × workload, with deltas vs the single-level platform",
		grid: func(add func(sim.Task, point)) {
			for gi, l2 := range o.L2Geometries {
				for pi, p := range l2Protections {
					for _, w := range hierWorkloads {
						add(sim.Task{
							Label: fmt.Sprintf("l2=%v prot=%s %s", l2, p.name, w),
							Params: sim.P("l2", l2.String(), "prot", p.name,
								"workload", w, "mode", "HP"),
						}, point{gi, pi, o.workload(w)})
					}
				}
			}
		},
		run: func(p point, _ sim.Task, _ *rand.Rand) (sim.Result, error) {
			rep, err := o.hierReport(p.src, p.gi, p.pi)
			if err != nil {
				return sim.Result{}, err
			}
			flat, err := o.pair(pairPoint{s: scenarios[0], m: core.ModeHP, src: p.src})
			if err != nil {
				return sim.Result{}, err
			}
			l1, l2 := rep.Levels[0], rep.Levels[1]
			ms := []sim.Metric{
				sim.NumU("epi", rep.EPI.Total(), "pJ/i"),
				sim.Fmt("epi_delta", 100*(rep.EPI.Total()/flat.Prop.EPI.Total()-1), "%+.1f%%"),
				sim.Fmt("cycles_delta", 100*(float64(rep.Stats.Cycles)/float64(flat.Prop.Stats.Cycles)-1), "%+.1f%%"),
				sim.NumU("l1_epi", l1.EPI(), "pJ/i"),
				sim.NumU("l2_epi", l2.EPI(), "pJ/i"),
				sim.Fmt("l2_miss", missPct(l2.Misses, l2.Accesses), "%.2f%%"),
				sim.NumU("l1_stall", l1.StallNS, "ns"),
				sim.NumU("l2_stall", l2.StallNS, "ns"),
			}
			detail := fmt.Sprintf(
				"  level  %12s %12s %12s %12s\n  L1     %12.2f %12d %12d %12.0f\n  L2     %12.2f %12d %12d %12.0f\n",
				"pJ/i", "accesses", "misses", "stall ns",
				l1.EPI(), l1.Accesses, l1.Misses, l1.StallNS,
				l2.EPI(), l2.Accesses, l2.Misses, l2.StallNS)
			return sim.Result{Metrics: ms, Detail: detail}, nil
		},
	}
}

// sharedPairs are the co-running workload pairs of shared-l2: a code-
// heavy benchmark against a pointer chase, and a streaming stencil
// against the L1-adversarial sweep — footprints that contend for L2
// capacity in visibly different ways.
var sharedPairs = [][2]string{
	{"gsm_c", "ptrchase_l"},
	{"stencil_dsp", "adversarial_l1"},
}

// sharedL2Experiment co-runs workload pairs over one shared L2 per
// geometry and prices the interference: each core's EPI and L2 misses
// when sharing versus running the same hierarchy alone.
func sharedL2Experiment(o Options) sim.Experiment {
	o = o.withDefaults()
	type point struct {
		gi   int // index on Options.L2Geometries
		pair [2]source
	}
	return &experiment[point]{
		name: "shared-l2",
		desc: "shared-L2 contention sweep — per-core EPI and L2 miss inflation of co-running workload pairs vs each running the hierarchy alone",
		grid: func(add func(sim.Task, point)) {
			for gi, l2 := range o.L2Geometries {
				for _, pair := range sharedPairs {
					add(sim.Task{
						Label: fmt.Sprintf("l2=%v %s+%s", l2, pair[0], pair[1]),
						Params: sim.P("l2", l2.String(), "wa", pair[0], "wb", pair[1],
							"mode", "HP"),
					}, point{gi, [2]source{o.workload(pair[0]), o.workload(pair[1])}})
				}
			}
		},
		run: func(p point, _ sim.Task, _ *rand.Rand) (sim.Result, error) {
			aa, err := o.slab(p.pair[0])
			if err != nil {
				return sim.Result{}, err
			}
			ab, err := o.slab(p.pair[1])
			if err != nil {
				return sim.Result{}, err
			}
			sys, err := core.NewSystem(hierConfig(o.L2Geometries[p.gi], o.L2Latency, ecc.KindNone))
			if err != nil {
				return sim.Result{}, err
			}
			shared, err := sys.RunShared(
				[]string{p.pair[0].name, p.pair[1].name},
				[]trace.Stream{aa.NewCursor(), ab.NewCursor()}, core.ModeHP)
			if err != nil {
				return sim.Result{}, err
			}
			var ms []sim.Metric
			var detail strings.Builder
			fmt.Fprintf(&detail, "  %-16s %10s %10s %12s %12s\n",
				"core", "epi pJ/i", "Δepi", "l2 misses", "Δmisses")
			for i, rep := range shared {
				alone, err := o.hierReport(p.pair[i], p.gi, 0) // l2Protections[0] is none
				if err != nil {
					return sim.Result{}, err
				}
				sm := rep.Levels[1].Misses
				am := alone.Levels[1].Misses
				dEPI := 100 * (rep.EPI.Total()/alone.EPI.Total() - 1)
				dMiss := 100 * (float64(sm)/float64(max(am, 1)) - 1)
				pfx := fmt.Sprintf("c%d", i)
				ms = append(ms,
					sim.NumU(pfx+"_epi", rep.EPI.Total(), "pJ/i"),
					sim.Fmt(pfx+"_depi", dEPI, "%+.1f%%"),
					sim.Fmt(pfx+"_dl2miss", dMiss, "%+.1f%%"),
				)
				fmt.Fprintf(&detail, "  %-16s %10.1f %+9.1f%% %12d %+11.1f%%\n",
					rep.Workload, rep.EPI.Total(), dEPI, sm, dMiss)
			}
			return sim.Result{Metrics: ms, Detail: detail.String()}, nil
		},
	}
}

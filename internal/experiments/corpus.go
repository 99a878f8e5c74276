package experiments

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"

	"edcache/internal/bench"
	"edcache/internal/cache"
	"edcache/internal/core"
	"edcache/internal/sim"
	"edcache/internal/trace"
)

// corpusExperiment sweeps the full workload corpus — the paper's ten
// MediaBench-like kernels plus the extension generators (pointer
// chasing, stencils, branch-heavy control, phased working sets, the
// conflict adversary) — across both scenarios and both operating
// modes: EPI for baseline and proposed, miss rates, and the ULE-mode
// slowdown from the EDC pipeline stage. Every workload is generated
// once into a shared slab and replayed once for the whole run: the
// eight scenario×mode×design points of a source are one
// core.RunGroupArena pass (group.go), shared with fig3, fig4, headline
// and phase-epi. Each grid task keeps its own row and reads its pair
// out of that replay, so grid shape, metrics and the workers-invariance
// contract are untouched — grouped replay is bit-identical to
// per-point replay. Options.TraceFiles adds captured trace files as
// further grid points, completing the capture-then-sweep loop on the
// engine.
func corpusExperiment(o Options) sim.Experiment {
	o = o.withDefaults()
	return &experiment[pairPoint]{
		name: "corpus",
		desc: "corpus-wide sweep — EPI, miss rates and ULE slowdown for every registered workload (and any -trace file), both scenarios and modes",
		grid: func(add func(sim.Task, pairPoint)) {
			traceNames := traceSourceNames(o.TraceFiles)
			for _, s := range scenarios {
				for _, m := range modes {
					for _, w := range bench.Full() {
						add(sim.Task{
							Label: fmt.Sprintf("scenario=%v %v %s", s, m, w.Name),
							Params: sim.P("scenario", s.String(), "mode", m.String(),
								"workload", w.Name, "suite", w.Suite.String(), "pattern", w.Pattern.String()),
						}, pairPoint{s: s, m: m, src: o.gen(w)})
					}
					for _, tf := range o.TraceFiles {
						add(sim.Task{
							Label: fmt.Sprintf("scenario=%v %v %s", s, m, traceNames[tf]),
							Params: sim.P("scenario", s.String(), "mode", m.String(),
								"workload", traceNames[tf], "trace", tf,
								"suite", "trace", "pattern", "trace"),
						}, pairPoint{s: s, m: m, src: source{name: traceNames[tf], trace: tf}})
					}
				}
			}
		},
		run: func(pt pairPoint, _ sim.Task, _ *rand.Rand) (sim.Result, error) {
			p, err := o.pair(pt)
			if err != nil {
				return sim.Result{}, err
			}
			rb, rp := p.Base, p.Prop
			ms := []sim.Metric{
				sim.NumU("base_epi", rb.EPI.Total(), "pJ/i"),
				sim.NumU("prop_epi", rp.EPI.Total(), "pJ/i"),
				sim.Fmt("saving", p.SavingPct(), "%.1f%%"),
				sim.Fmt("time_increase", p.TimeIncreasePct(), "%.2f%%"),
				sim.Fmt("il1_miss", missPct(rp.Stats.IMisses, rp.Stats.IAccesses), "%.3f%%"),
				sim.Fmt("dl1_miss", missPct(rp.Stats.DMisses, rp.Stats.DAccesses), "%.3f%%"),
				sim.Fmt("cpi", rp.Stats.CPI(), "%.3f"),
			}
			return sim.Result{Metrics: ms, Data: p}, nil
		},
		finish: func(results []sim.Result, points []pairPoint) ([]sim.Result, error) {
			// Corpus-wide averages per (scenario, mode), aggregated with
			// the library's own summariser so every experiment shares one
			// averaging convention. File-backed points are reported but
			// excluded from the averages, which would otherwise shift with
			// whatever -trace files a run happens to add.
			out := results
			for _, s := range scenarios {
				for _, m := range modes {
					var pairs []core.Pair
					for _, r := range results {
						if pt := points[r.Task.ID]; pt.s != s || pt.m != m || pt.src.trace != "" {
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
					out = append(out, sim.Result{
						Task: sim.Task{
							ID:     len(out),
							Label:  fmt.Sprintf("scenario=%v %v corpus average", s, m),
							Params: sim.P("scenario", s.String(), "mode", m.String(), "workload", "average"),
						},
						Metrics: []sim.Metric{
							sim.Fmt("avg_saving", sum.AvgSavingPct, "%.1f%%"),
							sim.Fmt("avg_time_increase", sum.AvgTimeIncreasePct, "%.2f%%"),
						},
					})
				}
			}
			return out, nil
		},
	}
}

// corpusMissGeometry is the full cache geometry the capacity sweep
// slices (the paper's L1) and the geometry the calibrated workloads
// are footprint-sized against.
var corpusMissGeometry = cache.Config{Sets: 32, Ways: 8, LineBytes: 32}

// corpusMissExperiment characterises every corpus workload's data-side
// locality: DL1 miss rate as capacity grows from the 1 KB ULE way to
// the full 8 KB cache (ways 1, 2, 4, 8). The sweep separates capacity
// misses (vanish with ways) from the adversary's conflict misses (they
// never do). The capacity axis runs on Mattson-style single-pass
// profiling: per source, ONE cache.StackProfile pass replaces the
// per-associativity replays — each ways-k grid point is then an
// O(histogram) readout, bit-identical to replaying a k-way cache (the
// LRU inclusion property, pinned by the profiler's property test and
// this package's replay cross-check).
// Alongside the registered corpus it sweeps bench.CalibratedCorpus:
// stencil and pointer-chase instances footprint-sized at fit/2×/8× of
// the swept geometry by bench.CalibrateFootprint, so the capacity axis
// carries points that track the cache configuration instead of
// hand-picked byte counts. Options.TraceFiles adds captured trace
// files too.
func corpusMissExperiment(o Options) sim.Experiment {
	o = o.withDefaults()
	ways := []int{1, 2, 4, 8}
	type point struct {
		src   source
		suite string // the suite column; a "calibrated" source is read once
		ways  int
	}
	// profiles holds each source's one stack-distance pass, keyed by its
	// point at ways 0. A source's ways tasks share a sim.Task.Group, so
	// one worker builds the profile and reads it out for all of them
	// while the other workers profile other sources; no task waits on a
	// build elsewhere unless RunTasks splits the source across shards.
	profiles := sim.NewShared(func(p point) (*cache.StackProfile, error) {
		var s trace.Stream
		if p.suite == "calibrated" {
			s = p.src.w.Stream() // read once: see Options.slab
		} else {
			slab, err := o.slab(p.src)
			if err != nil {
				return nil, err
			}
			s = slab.NewCursor()
		}
		prof := cache.MustNewStackProfile(corpusMissGeometry)
		ProfileDataRefs(s, prof)
		return prof, nil
	})
	return &experiment[point]{
		name: "corpus-miss",
		desc: "corpus locality sweep — DL1 miss rate vs cache capacity (1-8 ways) for every registered workload, geometry-calibrated footprints (and any -trace file)",
		grid: func(add func(sim.Task, point)) {
			traceNames := traceSourceNames(o.TraceFiles)
			// addSource adds one source's ways axis, grouped on its profile.
			addSource := func(src source, suite, pattern string) {
				params := []string{"workload", src.name, "suite", suite, "pattern", pattern}
				if src.trace != "" {
					params = append(params, "trace", src.trace)
				}
				for _, n := range ways {
					add(sim.Task{
						Label:  fmt.Sprintf("%s ways=%d", src.name, n),
						Params: sim.P(append(params, "ways", strconv.Itoa(n))...),
						Group:  suite + "\x00" + src.name + "\x00" + src.trace,
					}, point{src, suite, n})
				}
			}
			for _, w := range bench.Full() {
				addSource(o.gen(w), w.Suite.String(), w.Pattern.String())
			}
			for _, w := range bench.CalibratedCorpus(corpusMissGeometry) {
				addSource(o.gen(w), "calibrated", w.Pattern.String())
			}
			for _, tf := range o.TraceFiles {
				addSource(source{name: traceNames[tf], trace: tf}, "trace", "trace")
			}
		},
		run: func(p point, _ sim.Task, _ *rand.Rand) (sim.Result, error) {
			// One profile pass per source serves every ways-k task; the
			// post-build reads (Refs, Misses) are read-only and safe for
			// the concurrent tasks sharing it.
			prof, err := profiles.Get(point{src: p.src, suite: p.suite})
			if err != nil {
				return sim.Result{}, err
			}
			refs := prof.Refs()
			if refs == 0 {
				return sim.Result{}, fmt.Errorf("experiments: %s produced no memory references", p.src.name)
			}
			misses := prof.Misses(p.ways)
			geom := corpusMissGeometry
			geom.Ways = p.ways
			return sim.Result{Metrics: []sim.Metric{
				sim.NumU("capacity", float64(geom.SizeBytes()), "B"),
				sim.Num("refs", float64(refs)),
				sim.Fmt("miss_rate", 100*float64(misses)/float64(refs), "%.3f%%"),
			}}, nil
		},
	}
}

// replayChunk is the instruction granularity of the data-reference
// replay loops below.
const replayChunk = 4096

// replayScratch is one replay loop's buffer set, pooled so the sweep's
// steady state (thousands of grid points across worker goroutines)
// reuses a few scratch sets instead of allocating ~130 KB per point.
type replayScratch struct {
	ops []cache.Op
	res []cache.Result
}

var replayPool = sync.Pool{New: func() any {
	return &replayScratch{
		ops: make([]cache.Op, 0, replayChunk),
		res: make([]cache.Result, replayChunk),
	}
}}

// dataRefChunks drains the stream, extracting loads and stores in
// program order into pooled chunks and handing each op chunk to sink,
// with a result row of the same length from the same scratch set. It is
// the shared walk of ReplayDataRefs and ProfileDataRefs.
func dataRefChunks(s trace.Stream, sink func(ops []cache.Op, res []cache.Result)) (refs int) {
	scr := replayPool.Get().(*replayScratch)
	defer replayPool.Put(scr)
	for {
		insts := s.NextSlice(replayChunk)
		if len(insts) == 0 {
			return refs
		}
		ops := scr.ops[:0]
		for i := range insts {
			if insts[i].IsLoad || insts[i].IsStore {
				ops = append(ops, cache.Op{Addr: insts[i].Addr, Write: insts[i].IsStore})
			}
		}
		sink(ops, scr.res[:len(ops)])
		refs += len(ops)
	}
}

// ReplayDataRefs streams a workload's loads and stores through one
// cache via the batched entry point and counts misses. It is the
// per-geometry replay loop the capacity axis used grid-point by grid
// point (and the oracle its profiled replacement is tested against);
// the root benchmark harness reuses it so BenchmarkCorpusSweep
// measures exactly this loop.
func ReplayDataRefs(s trace.Stream, c *cache.Cache) (refs, misses int) {
	refs = dataRefChunks(s, func(ops []cache.Op, res []cache.Result) {
		c.AccessBatch(ops, res)
		for i := range res {
			if !res[i].Hit {
				misses++
			}
		}
	})
	return refs, misses
}

// ProfileDataRefs streams a workload's loads and stores through a
// stack-distance profiler: the single pass that replaces the capacity
// axis's per-associativity ReplayDataRefs replays. Returns the
// reference count (equal to what any ReplayDataRefs over the same
// stream reports).
func ProfileDataRefs(s trace.Stream, p *cache.StackProfile) (refs int) {
	return dataRefChunks(s, func(ops []cache.Op, _ []cache.Result) { p.AccessBatch(ops) })
}

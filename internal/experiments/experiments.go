// Package experiments declares every evaluation of the paper —
// Section IV's tables and figures, the ablations, and the operating-
// point sweeps — as sim.Experiment values on a sim.Registry. Binaries
// (cmd/experiments, cmd/sizer, cmd/hybridsim, examples/yieldsweep) are
// thin drivers over this package: adding a new scenario is a ~30-line
// registration here, not a new main().
package experiments

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"

	"edcache/internal/bench"
	"edcache/internal/core"
	"edcache/internal/sim"
	"edcache/internal/trace"
	"edcache/internal/yield"
)

// Options tunes the cost of the registered experiments. Tests register
// with tiny values; the binaries default to the paper's.
type Options struct {
	// Instructions is the dynamic instruction count per workload run
	// (default 300 000, the paper-scale trace length).
	Instructions int
	// Trials is the silicon-sample count of the Monte-Carlo
	// reliability campaign (default 2000).
	Trials int
	// MCSamples are the sample counts the mc-sampling experiment
	// contrasts (default 1e3, 1e4, 1e5).
	MCSamples []int
	// Workers bounds the inner-loop pools (workload fan-out, trial
	// shards) that run inside a single grid task; ≤ 0 means
	// runtime.GOMAXPROCS(0). When the driver also runs grid tasks
	// concurrently the goroutine count can exceed Workers, but true
	// parallelism stays bounded by GOMAXPROCS — oversubscription only
	// queues runnable goroutines, it does not change results.
	Workers int

	// TraceFiles names captured trace files (v1 or v2, from tracegen)
	// to sweep as first-class grid points alongside the generator
	// corpus: corpus and corpus-miss add one grid point per
	// (scenario/ways, mode, file), phase-epi one per file when the file
	// carries phase annotations. Each file is opened once as a shared
	// slab and every grid point replays it.
	TraceFiles []string

	// L2Geometries lists the second-level geometries (sets × ways at
	// the L1's line size) swept by the hierarchy experiments hier-epi
	// and shared-l2; default 128×8 and 512×8 — 32 KB and 128 KB behind
	// the paper's 8 KB L1s.
	L2Geometries []L2Geometry
	// L2Latency is the L1-miss service latency of every swept L2 in
	// cycles (default 6).
	L2Latency int

	// MapThreshold is the file size (bytes) at which trace files are
	// memory-mapped in place (trace.MapArena) instead of decoded into
	// materialized slabs; 0 means trace.DefaultMapThreshold. Mapping
	// replays the validated on-disk records out of the page cache, so
	// very large traces do not get duplicated on the heap. Replay is
	// bit-identical either way.
	MapThreshold int64

	// memos are the run's shared caches, installed by withDefaults and
	// shared by every experiment registered from one RegisterAll call.
	// They sit behind one pointer so that Options stays small enough
	// for the experiments' closures to capture it by value.
	*memos
}

// memos are the run-scoped caches behind Options. Each builds lazily,
// on first use, and at most once per key per run.
type memos struct {
	arenas     *bench.ArenaCache                            // workload slabs
	fileArenas *sim.Shared[string, trace.Slab]              // opened trace files
	systems    *sim.Shared[yield.Scenario, [2]*core.System] // sized baseline/proposed pair per scenario
	replays    *sim.Shared[source, []core.Report]           // each source's single group replay (group.go)
}

func (o Options) withDefaults() Options {
	if o.Instructions <= 0 {
		o.Instructions = 300_000
	}
	if o.Trials <= 0 {
		o.Trials = 2000
	}
	if len(o.MCSamples) == 0 {
		o.MCSamples = []int{1_000, 10_000, 100_000}
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if len(o.L2Geometries) == 0 {
		o.L2Geometries = []L2Geometry{{Sets: 128, Ways: 8}, {Sets: 512, Ways: 8}}
	}
	if o.L2Latency <= 0 {
		o.L2Latency = 6
	}
	if o.memos == nil {
		threshold := o.MapThreshold
		o.memos = &memos{
			arenas: bench.NewArenaCache(),
			fileArenas: sim.NewShared(func(path string) (trace.Slab, error) {
				return trace.OpenSlab(path, threshold)
			}),
			systems: newSystems(),
		}
		o.replays = sim.NewShared(o.replayGroup)
	}
	return o
}

// CanonicalString renders every result-affecting option in a fixed
// order — the "canonicalized Options" part of a result store digest.
// Workers and MapThreshold are deliberately absent: the engine's
// standing determinism and mmap-differential tests prove neither can
// change a result byte, so including them would only split the cache.
func (o Options) CanonicalString() string {
	o = o.withDefaults()
	var b strings.Builder
	fmt.Fprintf(&b, "instructions=%d trials=%d mcsamples=", o.Instructions, o.Trials)
	for i, s := range o.MCSamples {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", s)
	}
	b.WriteString(" traces=")
	for i, tf := range o.TraceFiles {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(tf)
	}
	b.WriteString(" l2=")
	for i, g := range o.L2Geometries {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(g.String())
	}
	fmt.Fprintf(&b, " l2lat=%d", o.L2Latency)
	return b.String()
}

// RegisterAll registers the full evaluation suite on the registry. The
// defaulted Options carry the run's shared decode-once caches, so every
// experiment registered here generates each workload — and decodes each
// trace file — at most once, no matter how many grids replay it.
// It also registers the typed Result.Data payloads the suite attaches
// (core.Pair under the figure and corpus grids), so store-backed runs
// can checkpoint those results losslessly and Finish aggregation works
// across a resume.
func RegisterAll(r *sim.Registry, o Options) {
	o = o.withDefaults()
	sim.RegisterPayload[core.Pair]("core.Pair")
	r.MustRegister(sizingExperiment())
	r.MustRegister(yieldExperiment())
	r.MustRegister(fig3Experiment(o))
	r.MustRegister(fig4Experiment(o))
	r.MustRegister(headlineExperiment(o))
	r.MustRegister(areaExperiment())
	r.MustRegister(reliabilityExperiment(o))
	r.MustRegister(wcetExperiment())
	r.MustRegister(serExperiment())
	for _, e := range ablationExperiments(o) {
		r.MustRegister(e)
	}
	r.MustRegister(sweepVoltageExperiment())
	r.MustRegister(sweepYieldExperiment())
	r.MustRegister(mcSamplingExperiment(o))
	r.MustRegister(corpusExperiment(o))
	r.MustRegister(corpusMissExperiment(o))
	r.MustRegister(phaseEPIExperiment(o))
	r.MustRegister(funcCorrExperiment(o))
	r.MustRegister(hierEPIExperiment(o))
	r.MustRegister(sharedL2Experiment(o))
}

// scenarios is the evaluation order of the paper's two reliability
// scenarios, and modes that of its two operating modes.
var (
	scenarios = []yield.Scenario{yield.ScenarioA, yield.ScenarioB}
	modes     = []core.Mode{core.ModeHP, core.ModeULE}
)

// scenarioByName resolves a task's "scenario" parameter.
func scenarioByName(name string) (yield.Scenario, error) {
	switch name {
	case "A", "a":
		return yield.ScenarioA, nil
	case "B", "b":
		return yield.ScenarioB, nil
	default:
		return 0, fmt.Errorf("experiments: unknown scenario %q", name)
	}
}

// modeByName resolves a task's "mode" parameter.
func modeByName(name string) (core.Mode, error) {
	switch name {
	case "HP", "hp":
		return core.ModeHP, nil
	case "ULE", "ule":
		return core.ModeULE, nil
	default:
		return 0, fmt.Errorf("experiments: unknown mode %q", name)
	}
}

// workloadByName resolves a benchmark name at the configured trace
// length.
func workloadByName(name string, instructions int) (bench.Workload, error) {
	w, err := bench.ByName(name)
	if err != nil {
		return bench.Workload{}, err
	}
	return w.ScaledTo(instructions), nil
}

// workloadArena resolves a benchmark name to its shared decode-once
// slab (generated at most once per run across every experiment sharing
// these Options).
func (o Options) workloadArena(name string) (bench.Workload, *trace.Arena, error) {
	w, err := workloadByName(name, o.Instructions)
	if err != nil {
		return bench.Workload{}, nil, err
	}
	return w, o.arenas.Get(w), nil
}

// traceSourceNames labels each file-backed sweep source for the
// workload column: the basename when it is unique across the run's
// trace files, the full path when two files share one — otherwise
// their grid rows would be indistinguishable.
func traceSourceNames(paths []string) map[string]string {
	base := make(map[string]int, len(paths))
	for _, p := range paths {
		base[filepath.Base(p)]++
	}
	names := make(map[string]string, len(paths))
	for _, p := range paths {
		if base[filepath.Base(p)] > 1 {
			names[p] = "trace:" + p
		} else {
			names[p] = "trace:" + filepath.Base(p)
		}
	}
	return names
}

// missPct returns misses/accesses as a percentage, 0 when the stream
// produced no such accesses — degenerate sources (an all-branch trace,
// an empty phase) must report 0 %, not NaN.
func missPct(misses, accesses uint64) float64 {
	if accesses == 0 {
		return 0
	}
	return 100 * float64(misses) / float64(accesses)
}

// suite returns the paper's per-mode workload suite scaled to the
// configured trace length.
func suite(m core.Mode, instructions int) []bench.Workload {
	ws := core.PaperModeWorkloads(m)
	for i := range ws {
		ws[i] = ws[i].ScaledTo(instructions)
	}
	return ws
}

// breakdownMetrics flattens an EPI breakdown into named metrics.
func breakdownMetrics(prefix string, b core.Breakdown) []sim.Metric {
	return []sim.Metric{
		sim.NumU(prefix+"_dyn", b.CacheDynamic, "pJ/i"),
		sim.NumU(prefix+"_leak", b.CacheLeakage, "pJ/i"),
		sim.NumU(prefix+"_edc", b.EDC, "pJ/i"),
		sim.NumU(prefix+"_core", b.Core, "pJ/i"),
	}
}

func f0(v float64) string { return fmt.Sprintf("%.0f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

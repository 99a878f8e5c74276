// Package experiments declares every evaluation of the paper —
// Section IV's tables and figures, the ablations, and the operating-
// point sweeps — as sim.Experiment values on a sim.Registry. Binaries
// (cmd/experiments, cmd/sizer, cmd/hybridsim, examples/yieldsweep) are
// thin drivers over this package: adding a new scenario is a ~30-line
// registration here, not a new main().
//
// An experiment with a grid adds each task and its typed point in one
// loop, and its run function receives the point:
//
//	return &experiment[int]{
//		name: "a2-memlat",
//		grid: func(add func(sim.Task, int)) {
//			for _, lat := range []int{10, 20, 40, 80} {
//				add(sim.Task{Label: fmt.Sprintf("memlat=%d", lat),
//					Params: sim.P("mem_latency", strconv.Itoa(lat))}, lat)
//			}
//		},
//		run: func(lat int, t sim.Task, _ *rand.Rand) (sim.Result, error) {
//			...
//		},
//	}
//
// The grid is built on first use, never at registration. Label and
// Params are output only (sinks, labels, the store digest); no
// experiment parses them back.
package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"

	"edcache/internal/bench"
	"edcache/internal/core"
	"edcache/internal/sim"
	"edcache/internal/store"
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
	// carries phase annotations. Each file is opened once, through the
	// run's slab memo (Options.slab), and every grid point replays it.
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
	slabs   *sim.Shared[source, trace.Slab]              // every stream a grid point reads (Options.slab)
	systems *sim.Shared[yield.Scenario, [2]*core.System] // sized baseline/proposed pair per scenario
	replays *sim.Shared[source, []core.Report]           // each source's single group replay (group.go)
}

func (o Options) withDefaults() Options {
	if o.Instructions <= 0 {
		o.Instructions = 300_000
	}
	if o.Trials <= 0 {
		o.Trials = 2000
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
		o.memos = &memos{systems: newSystems()}
		o.slabs = sim.NewShared(o.openSlab)
		o.replays = sim.NewShared(o.replayGroup)
	}
	return o
}

// CanonicalString renders every result-affecting option in a fixed
// order — the "canonicalized Options" part of a result store digest.
// A trace file enters as its path and the SHA-256 of its bytes, so a
// rewritten file misses the rows its old content produced. Workers and
// MapThreshold are deliberately absent: the engine's standing
// determinism and mmap-differential tests prove neither can change a
// result byte, so including them would only split the cache.
func (o Options) CanonicalString() string {
	o = o.withDefaults()
	var b strings.Builder
	fmt.Fprintf(&b, "instructions=%d trials=%d traces=", o.Instructions, o.Trials)
	for i, tf := range o.TraceFiles {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(tf + "@" + fileSHA256(tf))
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

// fileSHA256 is the hex SHA-256 of the file's bytes, or "unreadable".
// A run that cannot read a file fails every grid point that reads it,
// so no row of that file is ever stored under the "unreadable" scope.
func fileSHA256(path string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unreadable"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unreadable"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Scope is the result store scope of these options under the master
// seed: everything beyond grid coordinates that can change result
// bytes. cmd/experiments -store and edcached both key the store with
// it, so a store populated by one serves the other.
func (o Options) Scope(seed int64) []string {
	return []string{store.ModuleVersion(), o.CanonicalString(), fmt.Sprintf("seed=%d", seed)}
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
	r.MustRegister(serExperiment(o))
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

// experiment is a sim.Experiment over grid points of type P: grid adds
// each task with its point, on the first Grid, Run or Finish call, and
// run and finish receive the points by task ID.
type experiment[P any] struct {
	name, desc string
	grid       func(add func(sim.Task, P))
	run        func(p P, t sim.Task, rng *rand.Rand) (sim.Result, error)
	finish     func(results []sim.Result, points []P) ([]sim.Result, error) // optional

	once   sync.Once
	tasks  []sim.Task
	points []P
}

func (e *experiment[P]) build() {
	e.once.Do(func() {
		e.grid(func(t sim.Task, p P) {
			e.tasks = append(e.tasks, t)
			e.points = append(e.points, p)
		})
	})
}

// Name implements sim.Experiment.
func (e *experiment[P]) Name() string { return e.name }

// Description implements sim.Experiment.
func (e *experiment[P]) Description() string { return e.desc }

// Grid implements sim.Experiment: a fresh copy of the grid's tasks.
func (e *experiment[P]) Grid() []sim.Task {
	e.build()
	return slices.Clone(e.tasks)
}

// Run implements sim.Experiment.
func (e *experiment[P]) Run(t sim.Task, rng *rand.Rand) (sim.Result, error) {
	e.build()
	return e.run(e.points[t.ID], t, rng)
}

// Finish implements sim.Finisher; a nil finish passes results through.
func (e *experiment[P]) Finish(results []sim.Result) ([]sim.Result, error) {
	if e.finish == nil {
		return results, nil
	}
	e.build()
	return e.finish(results, e.points)
}

// gen is the generator source of workload w at the run's trace length.
func (o Options) gen(w bench.Workload) source {
	return source{name: w.Name, w: w.ScaledTo(o.Instructions)}
}

// workload is gen of a registered workload. The experiments name their
// workloads with this package's constants, so an unknown name is a
// programming error.
func (o Options) workload(name string) source {
	w, err := bench.ByName(name)
	if err != nil {
		panic(err)
	}
	return o.gen(w)
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

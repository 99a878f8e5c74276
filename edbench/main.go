// Command edbench is the repository's end-to-end benchmark. It drives
// the public entry points of edcache — the experiment registry and
// runner behind cmd/experiments and captured trace files — on two
// workloads, checks every output byte against cmd/experiments built from
// the same sources, and prints its metrics, the last line being one JSON
// object. Traced runs also probe the edcached service, with a real
// external worker process, for the store and service layers.
//
// Usage (from the repository root; edbench/run.sh builds and runs it):
//
//	edbench --workload paper-all|trace-sweep
//	        --seed N --seconds S --trace 0|1 [-root DIR] [-scale full|tiny]
//
// With --trace 0 the run reports the end-to-end metrics. With --trace 1
// it reports the per-layer metrics instead: spans recorded by the
// benchmark's own decorators around each layer's public functions, a
// probe pass that replays the workload's inputs through the replay
// layers one at a time, and the tracing overhead against untraced
// rounds of the same run. See edbench/WORKLOADS.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// procs is the parallelism every part of the system under test gets:
// GOMAXPROCS, runner workers, inner-loop workers and load clients are
// all pinned to it, so no process oversubscribes the machine.
var procs = min(2, runtime.NumCPU())

// sizes are the input sizes of one scale. Every workload's fixed unit
// of work (a round) is derived from them.
type sizes struct {
	PaperInstructions int // paper-all: instructions per workload run
	PaperTrials       int // paper-all: Monte-Carlo silicon samples

	SweepInstructions int   // trace-sweep: generator points' instructions
	MapInstructions   int   // trace-sweep: indexed, phased file read through MapArena
	SlabInstructions  int   // trace-sweep: indexed file read through LoadArenaFile
	GzipInstructions  int   // trace-sweep: gzip file read through the streaming Reader
	MapThreshold      int64 // trace-sweep: bytes at which files are mmapped

	ServiceInstructions int // service probe: instructions per job
	ServiceTrials       int // service probe: Monte-Carlo samples per job
	ServiceJobs         int // service probe: jobs per pass

	Poll      time.Duration // external worker idle claim interval
	SetupReps int           // set-ups measured per run (median reported)
	MinRounds int           // rounds measured even past --seconds
}

var scales = map[string]sizes{
	"full": {
		PaperInstructions: 300_000, PaperTrials: 2000,
		SweepInstructions: 50_000, MapInstructions: 4_000_000, SlabInstructions: 2_000_000,
		GzipInstructions: 2_000_000, MapThreshold: 32 << 20,
		ServiceInstructions: 20_000, ServiceTrials: 200, ServiceJobs: 25,
		Poll: 10 * time.Millisecond, SetupReps: 5, MinRounds: 2,
	},
	// tiny is the smoke-test scale: every code path, a fraction of a
	// second per round.
	"tiny": {
		PaperInstructions: 4000, PaperTrials: 40,
		SweepInstructions: 4000, MapInstructions: 40_000, SlabInstructions: 20_000,
		GzipInstructions: 20_000, MapThreshold: 300_000,
		ServiceInstructions: 4000, ServiceTrials: 40, ServiceJobs: 5,
		Poll: 10 * time.Millisecond, SetupReps: 2, MinRounds: 1,
	},
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	root     string // repository checkout the benchmark runs in
	bin      string // built edcached, experiments and tracegen
	work     string // this run's generated inputs and stores, removed at exit
	size     sizes
}

// workload runs one benchmark workload.
type workload struct {
	why string
	run func(ctx context.Context, c *config, r *report) error
}

var workloads = map[string]workload{
	"paper-all":   {"the paper reproduction a user runs: -run all at paper scale", runPaperAll},
	"trace-sweep": {"captured trace files: decode, mmap cursors and profiles over large slabs", runTraceSweep},
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("edbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: paper-all or trace-sweep")
		seed    = fs.Int64("seed", 1, "seed every generated input derives from")
		seconds = fs.Float64("seconds", 10, "measured time per run; whole rounds run until it is spent")
		traced  = fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
		root    = fs.String("root", ".", "repository checkout")
		scale   = fs.String("scale", "full", "input scale: full or tiny (smoke tests)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	sz, okScale := scales[*scale]
	if !ok || !okScale || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "edbench: bad arguments: -workload %q -scale %q -trace %d -seconds %g\n", *name, *scale, *traced, *seconds)
		return 2
	}
	runtime.GOMAXPROCS(procs)
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintln(stderr, "edbench:", err)
		return 1
	}
	c := &config{
		workload: *name, seed: *seed, seconds: *seconds, traced: *traced == 1,
		root: absRoot, bin: filepath.Join(absRoot, ".bench_build", "bin"), size: sz,
	}
	if err := c.checkBinaries(); err != nil {
		fmt.Fprintln(stderr, "edbench:", err)
		return 1
	}
	if err := os.MkdirAll(filepath.Join(absRoot, ".bench_build", "work"), 0o755); err != nil {
		fmt.Fprintln(stderr, "edbench:", err)
		return 1
	}
	if c.work, err = os.MkdirTemp(filepath.Join(absRoot, ".bench_build", "work"), *name+"-"); err != nil {
		fmt.Fprintln(stderr, "edbench:", err)
		return 1
	}
	defer func() {
		os.RemoveAll(c.work)
		flushDirty()
	}()

	r := &report{}
	r.note("workload", *name)
	r.note("why", wl.why)
	r.note("seed", fmt.Sprint(*seed))
	r.note("scale", *scale)
	r.note("gomaxprocs", fmt.Sprint(procs))
	if err := wl.run(context.Background(), c, r); err != nil {
		fmt.Fprintln(stderr, "edbench:", err)
		return 1
	}
	if err := r.write(stdout); err != nil {
		fmt.Fprintln(stderr, "edbench:", err)
		return 1
	}
	if !r.correct() {
		fmt.Fprintf(stderr, "edbench: %d of %d operations failed\n", r.failed, r.attempted)
		return 1
	}
	return 0
}

// checkBinaries fails fast when the programs under test were not built.
func (c *config) checkBinaries() error {
	for _, b := range []string{"edcached", "experiments", "tracegen"} {
		if _, err := os.Stat(filepath.Join(c.bin, b)); err != nil {
			return fmt.Errorf("%s not built (run edbench/run.sh): %w", b, err)
		}
	}
	return nil
}

// budget reports whether another round should run: MinRounds always
// do, then rounds continue until the measured time is spent.
func (c *config) budget(start time.Time, rounds int) bool {
	return rounds < c.size.MinRounds || time.Since(start).Seconds() < c.seconds
}

// ---- report ----

type metric struct {
	name    string
	value   float64
	unit    string
	samples int // samples behind the value (percentiles, medians)
}

// report collects one run's outcome.
type report struct {
	attempted, failed int
	failures          []string
	metrics           []metric
	notes             [][2]string
}

func (r *report) add(name string, v float64, unit string, samples int) {
	r.metrics = append(r.metrics, metric{name, v, unit, samples})
}

func (r *report) note(k, v string) { r.notes = append(r.notes, [2]string{k, v}) }

// op records one attempted operation; a non-nil err counts it failed.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, err.Error())
		}
	}
}

// check records a failed output check against an operation already
// counted as attempted.
func (r *report) check(err error) {
	if err == nil {
		return
	}
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, err.Error())
	}
}

func (r *report) correct() bool { return r.failed == 0 && r.attempted > 0 }

// write prints the human-readable report and, as the last line, the
// JSON result.
func (r *report) write(w io.Writer) error {
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %-22s %s\n", n[0], n[1])
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "# FAILED  %s\n", f)
	}
	failFrac := 0.0
	if r.attempted > 0 {
		failFrac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "%-34s %16s  %-8s %s\n", "metric", "value", "unit", "samples")
	fmt.Fprintf(w, "%-34s %16.6g  %-8s %d\n", "fail_frac", failFrac, "1", r.attempted)
	out := make(map[string]map[string]any, len(r.metrics))
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%-34s %16.6g  %-8s %d\n", m.name, m.value, m.unit, m.samples)
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   r.correct(),
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// ---- statistics ----

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linearly interpolated q-quantile of xs (0 when
// empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }

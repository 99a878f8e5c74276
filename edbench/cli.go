package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"edcache/internal/experiments"
	"edcache/internal/sim"
)

// cliSweep is the in-process equivalent of one cmd/experiments
// invocation: RegisterAll → Runner.RunAllContext → the JSON sink.
type cliSweep struct {
	opts    experiments.Options
	sel     string
	seed    int64
	cliArgs []string // the same run as cmd/experiments flags
}

// registry is the set-up a sweep needs before its first task: the
// registry build and the selector resolution. Every sweep builds its
// own, as every cmd/experiments process does, so generator arenas and
// trace files are decoded afresh inside the timed phase.
func (s cliSweep) registry() (*sim.Registry, []string, error) {
	reg := sim.NewRegistry()
	experiments.RegisterAll(reg, s.opts)
	names, err := reg.Resolve(s.sel)
	return reg, names, err
}

type sweepOut struct {
	bytes   []byte
	results []sim.Result
	jobMS   []float64 // one experiment grid each
	points  int
}

// sweep runs every selected experiment and renders the results. A job
// is one experiment's grid, the unit edcached accepts as a job.
func (s cliSweep) sweep(ctx context.Context, reg *sim.Registry, names []string, log *spanLog) (sweepOut, error) {
	var parent int64
	start := time.Now()
	if log != nil {
		parent = log.id()
		defer func() { log.record(parent, 0, "sweep", "", start, time.Now(), 0) }()
	}
	reg = log.wrapRegistry(reg, parent)
	var points atomic.Int64
	runner := sim.Runner{Workers: procs, Seed: s.seed, Progress: func(sim.Result, bool) { points.Add(1) }}
	var out sweepOut
	for _, n := range names {
		t := time.Now()
		res, err := runner.RunAllContext(ctx, reg, []string{n})
		out.jobMS = append(out.jobMS, millis(time.Since(t)))
		if err != nil {
			return out, fmt.Errorf("%s: %w", n, err)
		}
		out.results = append(out.results, res...)
	}
	var buf bytes.Buffer
	sinkStart := time.Now()
	sink, err := sim.NewSink("json", &buf)
	if err != nil {
		return out, err
	}
	if err := sink.Write(out.results); err != nil {
		return out, err
	}
	if log != nil {
		log.record(log.id(), parent, "sim.sink", "", sinkStart, time.Now(), int64(buf.Len()))
	}
	out.bytes = buf.Bytes()
	out.points = int(points.Load())
	return out, nil
}

// runCLI measures a cliSweep workload. Untraced, every round is timed
// for the end-to-end metrics. Traced, rounds alternate untraced and
// traced — their wall-time ratio is the tracing overhead — and the
// probe pass follows.
func runCLI(ctx context.Context, c *config, r *report, s cliSweep, in *probeInputs) error {
	var (
		e      endToEnd
		log    *spanLog
		first  sweepOut
		tWall  []float64 // traced rounds
		uWall  []float64 // untraced rounds of a traced run
		marks  [][2]int
		rounds int
	)
	if c.traced {
		log = newSpanLog()
		log.on.Store(true)
	}
	for i := 1; i < c.size.SetupReps; i++ {
		t := time.Now()
		if _, _, err := s.registry(); err != nil {
			return err
		}
		e.setup = append(e.setup, seconds(time.Since(t)))
	}
	flushDirty()
	start := time.Now()
	for ; c.budget(start, rounds) || (c.traced && rounds < 2); rounds++ {
		t := time.Now()
		reg, names, err := s.registry()
		if err != nil {
			return err
		}
		e.setup = append(e.setup, seconds(time.Since(t)))
		traceRound := c.traced && rounds%2 == 1
		var rl *spanLog
		mark := 0
		if traceRound {
			rl, mark = log, log.mark()
		}
		m, err := startMeter()
		if err != nil {
			return err
		}
		out, runErr := s.sweep(ctx, reg, names, rl)
		rd, err := m.stop(out.points, len(names))
		if err != nil {
			return err
		}
		for range names {
			r.op(nil)
		}
		if runErr != nil {
			r.check(runErr)
			return runErr
		}
		if rounds == 0 {
			first = out
			if e.peakRSS, err = peakRSSMB(); err != nil {
				return err
			}
		} else if !bytes.Equal(out.bytes, first.bytes) {
			r.check(fmt.Errorf("round %d output differs from round 0 for the same seed", rounds))
		}
		e.rounds = append(e.rounds, rd)
		e.roundJobs = append(e.roundJobs, out.jobMS)
		switch {
		case traceRound:
			tWall = append(tWall, seconds(rd.wall))
			marks = append(marks, [2]int{mark, log.mark()})
		case c.traced:
			uWall = append(uWall, seconds(rd.wall))
		}
	}
	r.note("rounds", e.walls())

	// Output checks: the bytes cmd/experiments prints for the same run,
	// and the paper's headline bands where the sweep has them.
	want, err := runExperimentsCLI(ctx, c, s.cliArgs)
	if err != nil {
		return err
	}
	r.attempted++
	if !bytes.Equal(first.bytes, want) {
		r.check(fmt.Errorf("in-process sweep output (%d B) differs from cmd/experiments %s (%d B)",
			len(first.bytes), strings.Join(s.cliArgs, " "), len(want)))
	}
	if err := checkHeadline(first.results); err != nil {
		r.check(err)
	}

	if !c.traced {
		e.emit(r)
		return nil
	}
	var spans spanSet
	for _, mk := range marks {
		spans = append(spans, log.since(mk[0])[:mk[1]-mk[0]]...)
	}
	emitSimLayer(r, spans, len(tWall), float64(procs)*sum(tWall))
	r.add("tracing.overhead_frac", median(tWall)/median(uWall)-1, "1", len(tWall)+len(uWall))
	if err := serviceLayers(ctx, c, r, log); err != nil {
		return err
	}
	defer in.close()
	r.check(probe(ctx, c, r, in, log, first.results))
	return log.write(filepath.Join(c.root, ".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", c.workload, c.seed)))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// runExperimentsCLI runs the cmd/experiments binary built from the
// same sources and returns its standard output.
func runExperimentsCLI(ctx context.Context, c *config, args []string) ([]byte, error) {
	cmd := exec.CommandContext(ctx, filepath.Join(c.bin, "experiments"), args...)
	cmd.Dir = c.root
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("experiments %s: %w: %s", strings.Join(args, " "), err, stderr.String())
	}
	return out, nil
}

// paperBands are the headline EPI-saving bands internal/core's
// evaluation test asserts — an independent reference for the paper's
// 14/12 % (HP) and 42/39 % (ULE) savings.
var paperBands = map[string][2]float64{
	"A/HP": {10, 19}, "A/ULE": {36, 48},
	"B/HP": {9, 18}, "B/ULE": {33, 45},
}

// checkHeadline checks the headline rows against the paper's bands and
// its ~3 % ULE-mode slowdown (none at HP). Sweeps without a headline
// experiment pass.
func checkHeadline(results []sim.Result) error {
	var errs []error
	seen := 0
	for _, res := range results {
		if res.Experiment != "headline" {
			continue
		}
		key := res.Task.Params["scenario"] + "/" + res.Task.Params["mode"]
		band, ok := paperBands[key]
		saving, ok1 := res.Metric("saving")
		slow, ok2 := res.Metric("time_increase")
		if !ok || !ok1 || !ok2 {
			errs = append(errs, fmt.Errorf("headline row %q lacks saving/time_increase", key))
			continue
		}
		seen++
		if saving.Value < band[0] || saving.Value > band[1] {
			errs = append(errs, fmt.Errorf("headline %s saving %.2f%% outside the paper band [%g, %g]", key, saving.Value, band[0], band[1]))
		}
		isULE := res.Task.Params["mode"] == "ULE"
		if (isULE && (slow.Value < 0.5 || slow.Value > 6)) || (!isULE && slow.Value != 0) {
			errs = append(errs, fmt.Errorf("headline %s slowdown %.2f%%, want ≈3%% at ULE and 0 at HP", key, slow.Value))
		}
	}
	if seen > 0 && seen != len(paperBands) {
		errs = append(errs, fmt.Errorf("headline has %d rows, want %d", seen, len(paperBands)))
	}
	return errors.Join(errs...)
}

// ---- paper-all ----

func runPaperAll(ctx context.Context, c *config, r *report) error {
	sz := c.size
	s := cliSweep{
		opts: experiments.Options{Instructions: sz.PaperInstructions, Trials: sz.PaperTrials, Workers: procs},
		sel:  "all",
		seed: c.seed,
		cliArgs: []string{"-run", "all", "-format", "json", "-seed", strconv.FormatInt(c.seed, 10),
			"-workers", strconv.Itoa(procs), "-instructions", strconv.Itoa(sz.PaperInstructions),
			"-trials", strconv.Itoa(sz.PaperTrials)},
	}
	r.note("spec", fmt.Sprintf("experiments %s (in process, no store)", strings.Join(s.cliArgs, " ")))
	return runCLI(ctx, c, r, s, generatorInputs(sz.PaperInstructions, sz.PaperTrials, c.seed))
}

// ---- trace-sweep ----

// traceFile is one captured input of trace-sweep.
type traceFile struct {
	role, workload string
	instructions   int
	flags          []string
	path           string
}

func runTraceSweep(ctx context.Context, c *config, r *report) error {
	sz := c.size
	// The seed moves each file's length by under 1 %, so every seed
	// gets its own inputs at the same cost.
	jitter := func(n int) int { return n + int(uint64(c.seed)%97)*n/10000 }
	files := []*traceFile{
		{role: "mapped", workload: "phased_mix", instructions: jitter(sz.MapInstructions), flags: []string{"-phases"}},
		{role: "slab", workload: "mpeg2_c", instructions: jitter(sz.SlabInstructions)},
		{role: "gzip", workload: "gsm_c", instructions: jitter(sz.GzipInstructions), flags: []string{"-gzip"}},
	}
	dir := filepath.Join(c.work, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var paths []string
	for _, f := range files {
		f.path = filepath.Join(dir, f.role+"-"+f.workload+".trace")
		args := append([]string{"-workload", f.workload, "-instructions", strconv.Itoa(f.instructions), "-o", f.path}, f.flags...)
		cmd := exec.CommandContext(ctx, filepath.Join(c.bin, "tracegen"), args...)
		if out, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("tracegen %s: %w: %s", strings.Join(args, " "), err, out)
		}
		st, err := os.Stat(f.path)
		if err != nil {
			return err
		}
		r.note("input."+f.role, fmt.Sprintf("%s %d instructions %s, %d B", f.workload, f.instructions, strings.Join(f.flags, " "), st.Size()))
		paths = append(paths, f.path)
	}
	r.note("input.fs", fsType(dir))
	s := cliSweep{
		opts: experiments.Options{Instructions: sz.SweepInstructions, Workers: procs, TraceFiles: paths, MapThreshold: sz.MapThreshold},
		sel:  "corpus,corpus-miss,phase-epi",
		seed: c.seed,
		cliArgs: []string{"-run", "corpus,corpus-miss,phase-epi", "-format", "json", "-seed", strconv.FormatInt(c.seed, 10),
			"-workers", strconv.Itoa(procs), "-instructions", strconv.Itoa(sz.SweepInstructions),
			"-trace", strings.Join(paths, ","), "-map-threshold", strconv.FormatInt(sz.MapThreshold, 10)},
	}
	r.note("spec", fmt.Sprintf("experiments %s (in process, no store)", strings.Join(s.cliArgs, " ")))
	in := generatorInputs(sz.SweepInstructions, sz.PaperTrials, c.seed)
	in.mapped, in.slab, in.gzip = files[0].path, files[1].path, files[2].path
	return runCLI(ctx, c, r, s, in)
}

// resultMetric finds one result row's metric value.
func resultMetric(results []sim.Result, exp string, params map[string]string, metric string) (float64, bool) {
	for _, res := range results {
		if res.Experiment != exp {
			continue
		}
		match := true
		for k, v := range params {
			if res.Task.Params[k] != v {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		m, ok := res.Metric(metric)
		return m.Value, ok
	}
	return 0, false
}

// decodeResults parses a JSON sink rendering.
func decodeResults(b []byte) ([]sim.Result, error) {
	var out []sim.Result
	err := json.Unmarshal(b, &out)
	return out, err
}

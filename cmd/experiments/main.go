// Command experiments regenerates every table and figure of the paper's
// evaluation (Section IV) plus the ablations and sweeps, through the
// concurrent experiment engine (internal/sim). It is a thin driver over
// the internal/experiments registry.
//
// Usage:
//
//	experiments [-run name,...|all] [-workers N] [-format text|json|csv]
//	            [-seed S] [-instructions N] [-trials N] [-trace f.trace,...]
//	            [-l2 SETSxWAYS,...] [-l2lat N] [-store DIR] [-resume] [-list]
//	            [-cpuprofile FILE] [-memprofile FILE] [-exectrace FILE]
//
// Experiment names may be unique prefixes ("rel" for "reliability").
// For a fixed -seed, output is byte-identical for every -workers value.
// -trace adds captured trace files (tracegen output), each listed once,
// to the corpus/corpus-miss/phase-epi sweeps as file-backed grid points;
// each file is decoded once and replayed from every point. A repeated
// or missing path is a usage error, reported before any experiment
// runs.
//
// -store DIR checkpoints every completed grid point into a crash-safe
// content-addressed result store; -resume additionally serves matching
// checkpoints as cache hits, so an interrupted sweep (Ctrl-C, crash,
// ENOSPC) picks up where it stopped. Entries are keyed by module
// version, the result-shaping options, the seed, and the grid
// coordinates — a stale or foreign store can only miss, never serve a
// wrong result, and resumed output stays byte-identical to an
// uninterrupted run. On interrupt or task failure the driver still
// writes every result that did complete, then exits non-zero.
//
// -cpuprofile FILE writes a CPU profile of the run and -memprofile FILE
// an allocation profile taken at its end, both in the runtime/pprof
// format that go tool pprof reads. -exectrace FILE writes a
// runtime/trace execution trace of the run (goroutines, GC, scheduler
// latency) for go tool trace. None of them changes the output.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"slices"
	"strings"
	"syscall"

	"edcache/internal/cli"
	"edcache/internal/experiments"
	"edcache/internal/sim"
	"edcache/internal/stats"
	"edcache/internal/store"
)

func main() {
	cli.Main("experiments", run, nil)
}

// run wires the process signals: the first Ctrl-C / SIGTERM cancels the
// sweep context — the Runner drains its pool, checkpoints what finished,
// and the partial results are flushed before the non-zero exit. A second
// signal means the drain itself is stuck (a huge in-flight task, a
// wedged disk): print "forcing exit" and leave immediately with 130.
func run(args []string, stdout io.Writer) error {
	ctx, stop := cli.SignalContext(context.Background(), cli.ForceExit("experiments"),
		os.Interrupt, syscall.SIGTERM)
	defer stop()
	return runCtx(ctx, args, stdout)
}

// runCtx is the testable driver body.
func runCtx(ctx context.Context, args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		runSel       = fs.String("run", "all", "experiments to run: comma-separated names, unique prefixes, or \"all\"")
		workers      = fs.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS)")
		format       = fs.String("format", "text", "output format: text, json or csv")
		seed         = fs.Int64("seed", 0, "master seed for every Monte-Carlo campaign")
		instructions = fs.Int("instructions", 300_000, "dynamic instructions per benchmark run")
		trials       = fs.Int("trials", 2000, "silicon samples per reliability campaign")
		traceFiles   = fs.String("trace", "", "comma-separated captured .trace files, each listed once, to sweep as file-backed grid points (corpus, corpus-miss, phase-epi)")
		mapThreshold = fs.Int64("map-threshold", 0, "file size in bytes at which -trace files are mmapped instead of decoded into slabs (0 = 64 MiB default)")
		l2Geoms      = fs.String("l2", "", "comma-separated L2 geometries (SETSxWAYS) swept by hier-epi and shared-l2 (default 128x8,512x8)")
		l2Lat        = fs.Int("l2lat", 0, "L2 hit latency in cycles for the hierarchy sweeps (0 = default 6)")
		storeDir     = fs.String("store", "", "directory of the durable result store; every completed grid point is checkpointed there")
		resume       = fs.Bool("resume", false, "serve matching -store checkpoints as cache hits instead of recomputing (requires -store)")
		list         = fs.Bool("list", false, "list registered experiments and exit")
		cpuProfile   = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile   = fs.String("memprofile", "", "write an allocation profile to this file at the end of the run")
		execTrace    = fs.String("exectrace", "", "write a runtime execution trace of the run to this file (go tool trace)")
	)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	// Grid sizes and latencies have no negative meaning; 0 keeps
	// selecting the documented default.
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"instructions", int64(*instructions)}, {"trials", int64(*trials)}, {"workers", int64(*workers)},
		{"l2lat", int64(*l2Lat)}, {"map-threshold", *mapThreshold},
	} {
		if f.v < 0 {
			fmt.Fprintf(fs.Output(), "invalid value %d for flag -%s: must not be negative\n", f.v, f.name)
			fs.Usage()
			return cli.ErrBadFlags
		}
	}
	if *resume && *storeDir == "" {
		return fmt.Errorf("-resume requires -store DIR (there is nothing to resume from)")
	}

	var traces []string
	for _, t := range strings.Split(*traceFiles, ",") {
		if t = strings.TrimSpace(t); t == "" {
			continue
		}
		if slices.ContainsFunc(traces, func(u string) bool { return filepath.Clean(u) == filepath.Clean(t) }) {
			fmt.Fprintf(fs.Output(), "invalid value %q for flag -trace: %s repeated\n", *traceFiles, t)
			fs.Usage()
			return cli.ErrBadFlags
		}
		traces = append(traces, t)
	}
	// A trace file is first opened when a grid point reads it; check
	// each now, so a bad path fails before any work instead of after
	// every point ahead of it.
	for _, t := range traces {
		if _, err := os.Stat(t); err != nil {
			fmt.Fprintf(fs.Output(), "invalid value %q for flag -trace: %v\n", *traceFiles, err)
			fs.Usage()
			return cli.ErrBadFlags
		}
	}
	var geoms []experiments.L2Geometry
	if *l2Geoms != "" {
		var err error
		if geoms, err = experiments.ParseL2Geometries(*l2Geoms); err != nil {
			fmt.Fprintf(fs.Output(), "invalid value %q for flag -l2: %v\n", *l2Geoms, err)
			fs.Usage()
			return cli.ErrBadFlags
		}
	}
	opts := experiments.Options{
		Instructions: *instructions,
		Trials:       *trials,
		Workers:      *workers,
		TraceFiles:   traces,
		MapThreshold: *mapThreshold,
		L2Geometries: geoms,
		L2Latency:    *l2Lat,
	}
	reg := sim.NewRegistry()
	experiments.RegisterAll(reg, opts)

	if *list {
		tb := stats.NewTable("name", "grid", "description")
		for _, name := range reg.Names() {
			e, _ := reg.Get(name)
			tb.AddRow(name, fmt.Sprint(len(e.Grid())), e.Description())
		}
		fmt.Fprint(stdout, tb.String())
		return nil
	}

	names, err := reg.Resolve(*runSel)
	if err != nil {
		return err
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); err == nil && cerr != nil {
				err = cerr
			}
		}()
	}
	if *execTrace != "" {
		f, err := os.Create(*execTrace)
		if err != nil {
			return err
		}
		if err := trace.Start(f); err != nil {
			f.Close()
			return fmt.Errorf("-exectrace: %w", err)
		}
		defer func() {
			trace.Stop()
			if cerr := f.Close(); err == nil && cerr != nil {
				err = cerr
			}
		}()
	}
	if *memProfile != "" {
		defer func() {
			if perr := writeAllocProfile(*memProfile); err == nil {
				err = perr
			}
		}()
	}
	sink, err := sim.NewSink(*format, stdout)
	if err != nil {
		return err
	}
	runner := sim.Runner{Workers: *workers, Seed: *seed}
	var cache *sim.StoreCache
	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			return fmt.Errorf("open result store: %w", err)
		}
		// Workers and -map-threshold are proven result-neutral and
		// deliberately absent from the scope — see CanonicalString.
		cache = &sim.StoreCache{Store: st, Scope: opts.Scope(*seed), Read: *resume}
		runner.Cache = cache
	}

	results, err := runner.RunAllContext(ctx, reg, names)
	if err != nil {
		// Flush what did complete — with -store it is checkpointed too,
		// so `-store DIR -resume` picks up from here — then exit non-zero.
		if len(results) > 0 {
			if werr := sink.Write(results); werr != nil {
				return fmt.Errorf("%w (and flushing %d partial results failed: %v)", err, len(results), werr)
			}
			fmt.Fprintf(os.Stderr, "experiments: flushed %d completed results before failing\n", len(results))
		}
		return err
	}
	if cache != nil {
		if st := cache.Stats(); st.Hits > 0 || st.PutErrors > 0 {
			fmt.Fprintf(os.Stderr, "experiments: store served %d of %d grid points; %d checkpoint writes failed\n",
				st.Hits, st.Hits+st.Misses, st.PutErrors)
		}
	}
	return sink.Write(results)
}

// writeAllocProfile writes the allocation profile to path after a
// garbage collection, so it reflects the whole run, as go test's
// -memprofile does.
func writeAllocProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

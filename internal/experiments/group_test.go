package experiments

import (
	"bytes"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"edcache/internal/bench"
	"edcache/internal/core"
	"edcache/internal/sim"
	"edcache/internal/trace"
)

// sharedReplayExperiments read their reports from the run-wide replay
// memo.
var sharedReplayExperiments = []string{"fig3", "fig4", "headline", "corpus", "phase-epi", "hier-epi", "shared-l2"}

// replayTestOptions are tinyOptions plus a phase-annotated and an
// unannotated trace file, so the memo holds file sources as well.
func replayTestOptions(t *testing.T) Options {
	o := tinyOptions()
	o.Instructions = 4_000
	phased := bench.Phased("phased_capture", bench.BigBench, 4096, 1_000, 77).ScaledTo(o.Instructions)
	flat := o.workload("gsm_c").w
	o.TraceFiles = []string{
		writeWorkloadTrace(t, phased, trace.V2Options{Phases: true}),
		writeWorkloadTrace(t, flat, trace.V2Options{}),
	}
	return o
}

// runSelection runs the named experiments in order on a fresh registry
// (fresh memos included) and returns each experiment's JSON bytes.
func runSelection(t *testing.T, o Options, workers int, names []string) map[string][]byte {
	t.Helper()
	o.Workers = workers
	reg := sim.NewRegistry()
	RegisterAll(reg, o)
	if names == nil {
		names = reg.Names()
	}
	res, err := sim.Runner{Workers: workers, Seed: 5}.RunAll(reg, names)
	if err != nil {
		t.Fatal(err)
	}
	byExp := map[string][]sim.Result{}
	for _, r := range res {
		byExp[r.Experiment] = append(byExp[r.Experiment], r)
	}
	out := map[string][]byte{}
	for name, rs := range byExp {
		var buf bytes.Buffer
		sink, err := sim.NewSink("json", &buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := sink.Write(rs); err != nil {
			t.Fatal(err)
		}
		out[name] = buf.Bytes()
	}
	return out
}

// TestSharedReplayBytesIndependentOfSelection pins the memo's
// transparency: whichever experiment replays a source first, each
// reader's bytes are those it produces alone in a fresh registry —
// inside the full suite, inside the full suite reversed (phase-epi and
// corpus building the groups fig3 and headline read), and at 1 and 8
// workers.
func TestSharedReplayBytesIndependentOfSelection(t *testing.T) {
	o := replayTestOptions(t)
	reg := sim.NewRegistry()
	RegisterAll(reg, o)
	reversed := slices.Clone(reg.Names())
	slices.Reverse(reversed)
	ref := map[string][]byte{}
	for _, workers := range []int{1, 8} {
		all := runSelection(t, o, workers, nil)
		rev := runSelection(t, o, workers, reversed)
		for _, name := range sharedReplayExperiments {
			alone := runSelection(t, o, workers, []string{name})[name]
			if len(alone) == 0 {
				t.Fatalf("%s produced no output", name)
			}
			if !bytes.Equal(alone, all[name]) {
				t.Errorf("workers=%d: %s alone differs from %s inside -run all", workers, name, name)
			}
			if !bytes.Equal(alone, rev[name]) {
				t.Errorf("workers=%d: %s alone differs from %s inside the reversed suite", workers, name, name)
			}
			if want, ok := ref[name]; ok && !bytes.Equal(alone, want) {
				t.Errorf("%s differs between 1 and %d workers", name, workers)
			}
			ref[name] = alone
		}
	}
}

// countingSlab counts the replays (cursor walks) of one trace file.
type countingSlab struct {
	trace.Slab
	walks *atomic.Int64
}

func (s countingSlab) NewCursor() trace.SliceBatcher {
	s.walks.Add(1)
	return s.Slab.NewCursor()
}

// TestRunAllReplaysEachSourceOnce counts the memos' builds over one
// full-suite run at 8 workers with trace files. Every generator
// workload and every file is replayed exactly once, whichever
// experiments read it, and so is each hier workload's hierarchy group,
// which both hier-epi and shared-l2 read. The slab memo builds one slab
// per key, and its keys are exactly the registered workloads at the
// run's length, stencil_s at func-corr's capped length, and each file.
// Each file is walked exactly twice — its group replay and
// corpus-miss's stack-distance profile — so no reader replays it behind
// the memo.
func TestRunAllReplaysEachSourceOnce(t *testing.T) {
	o := replayTestOptions(t).withDefaults()
	walks := map[string]*atomic.Int64{}
	for _, path := range o.TraceFiles {
		walks[path] = new(atomic.Int64)
	}
	var mu sync.Mutex
	slabs := map[source]int{}
	o.slabs = sim.NewShared(func(src source) (trace.Slab, error) {
		mu.Lock()
		slabs[src]++
		mu.Unlock()
		s, err := o.openSlab(src)
		if src.trace != "" {
			s = countingSlab{s, walks[src.trace]}
		}
		return s, err
	})
	builds := map[source]int{}
	o.replays = sim.NewShared(func(src source) ([]core.Report, error) {
		mu.Lock()
		builds[src]++
		mu.Unlock()
		return o.replayGroup(src)
	})
	reg := sim.NewRegistry()
	RegisterAll(reg, o)
	if _, err := (sim.Runner{Workers: 8, Seed: 5}).RunAll(reg, reg.Names()); err != nil {
		t.Fatal(err)
	}
	want := map[source]bool{}
	wantSlabs := map[source]bool{}
	for _, w := range bench.Full() {
		want[o.workload(w.Name)] = true
		wantSlabs[source{w: w.ScaledTo(o.Instructions)}] = true
	}
	for _, w := range hierWorkloads {
		src := o.workload(w)
		src.hier = true
		want[src] = true
	}
	for path, name := range traceSourceNames(o.TraceFiles) {
		want[source{name: name, trace: path}] = true
		wantSlabs[source{trace: path}] = true
	}
	stencil := o.workload(funcCorrWorkload).w
	wantSlabs[source{w: stencil.ScaledTo(min(o.Instructions, funcCorrInstructions))}] = true
	check := func(memo string, got map[source]int, want map[source]bool) {
		for src, n := range got {
			if !want[src] {
				t.Errorf("unexpected %s source %+v", memo, src)
			} else if n != 1 {
				t.Errorf("%s source %+v built %d times, want once", memo, src, n)
			}
		}
		for src := range want {
			if got[src] == 0 {
				t.Errorf("%s source %+v never built", memo, src)
			}
		}
	}
	check("replay", builds, want)
	check("slab", slabs, wantSlabs)
	for path, n := range walks {
		if n.Load() != 2 {
			t.Errorf("%s walked %d times, want 2 (group replay, miss profile)", path, n.Load())
		}
	}
}

package experiments

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"edcache/internal/core"
	"edcache/internal/sim"
	"edcache/internal/yield"
)

// tinyOptions keeps every experiment cheap enough for the smoke and
// determinism tests: short traces, few Monte-Carlo samples.
func tinyOptions() Options {
	return Options{
		Instructions: 2_000,
		Trials:       40,
		Workers:      4,
	}
}

func tinyRegistry(t *testing.T) *sim.Registry {
	t.Helper()
	reg := sim.NewRegistry()
	RegisterAll(reg, tinyOptions())
	return reg
}

// TestAllExperimentsSmoke exercises every registered experiment
// end-to-end on a small grid: each must run without error and produce
// one result per grid task (plus optional summary rows).
func TestAllExperimentsSmoke(t *testing.T) {
	reg := tinyRegistry(t)
	names := reg.Names()
	if len(names) < 15 {
		t.Fatalf("only %d experiments registered, expected the full suite", len(names))
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			e, ok := reg.Get(name)
			if !ok {
				t.Fatalf("experiment %q not found", name)
			}
			grid := len(e.Grid())
			if grid == 0 {
				t.Fatal("empty grid")
			}
			res, err := sim.Runner{Workers: 4, Seed: 1}.Run(e)
			if err != nil {
				t.Fatal(err)
			}
			if len(res) < grid {
				t.Fatalf("got %d results for %d grid tasks", len(res), grid)
			}
			for i, r := range res {
				if r.Experiment != name {
					t.Errorf("result %d attributed to %q", i, r.Experiment)
				}
				if len(r.Metrics) == 0 && r.Detail == "" {
					t.Errorf("result %d (%s) is empty", i, r.Task.Label)
				}
			}
		})
	}
}

// TestDeterminismAcrossWorkerCounts is the engine's regression contract:
// for a fixed seed, the parallel runner at 8 workers must produce
// results — and therefore sink output — identical to 1 worker, across
// the full suite. This protects the sharded-RNG and order-stable
// aggregation design.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	outputs := make([][]byte, 0, 2)
	for _, workers := range []int{1, 8} {
		reg := sim.NewRegistry()
		opts := tinyOptions()
		opts.Workers = workers
		RegisterAll(reg, opts)
		results, err := sim.Runner{Workers: workers, Seed: 99}.RunAll(reg, reg.Names())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		sink, err := sim.NewSink("json", &buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := sink.Write(results); err != nil {
			t.Fatal(err)
		}
		outputs = append(outputs, buf.Bytes())
	}
	if !bytes.Equal(outputs[0], outputs[1]) {
		t.Fatal("JSON output differs between -workers 1 and -workers 8")
	}
}

func TestNewSizingExperiment(t *testing.T) {
	exp := NewSizing(yield.PaperInput(yield.ScenarioB))
	res, err := sim.Runner{}.Run(exp)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Detail == "" {
		t.Fatalf("sizer produced %d results, want 1 with a walkthrough", len(res))
	}
	m, ok := res[0].Metric("proposed_yield")
	if !ok || m.Value <= 0 || m.Value >= 1 {
		t.Fatalf("proposed_yield metric = %+v", m)
	}
}

func TestNewHybridRunCompare(t *testing.T) {
	exp := NewHybridRun(HybridSpec{
		Scenario:     yield.ScenarioA,
		Mode:         core.ModeULE,
		Designs:      []core.Design{core.Baseline, core.Proposed},
		Workload:     "adpcm_c",
		Instructions: 2_000,
	})
	res, err := sim.Runner{Workers: 2}.Run(exp)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("got %d results, want 2 designs + comparison", len(res))
	}
	delta, ok := res[2].Metric("epi_delta")
	if !ok {
		t.Fatal("comparison row missing epi_delta")
	}
	// The proposed design must save energy at ULE mode.
	if delta.Value >= 0 {
		t.Fatalf("proposed EPI delta %+.1f%%, want negative", delta.Value)
	}
}

func TestHybridRunUnknownWorkload(t *testing.T) {
	exp := NewHybridRun(HybridSpec{
		Scenario: yield.ScenarioA, Mode: core.ModeULE,
		Designs: []core.Design{core.Proposed}, Workload: "nope", Instructions: 1000,
	})
	if _, err := (sim.Runner{}).Run(exp); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// TestFigureSummaryMatchesSerialSummarize cross-checks the fig4 Finish
// aggregation against core.Summarize on the same serial evaluation.
func TestFigureSummaryMatchesSerialSummarize(t *testing.T) {
	o := tinyOptions()
	reg := tinyRegistry(t)
	e, _ := reg.Get("fig4")
	res, err := sim.Runner{Workers: 8, Seed: 1}.Run(e)
	if err != nil {
		t.Fatal(err)
	}
	var got float64
	found := false
	for _, r := range res {
		if r.Task.Params["workload"] == "average" && r.Task.Params["scenario"] == "A" {
			m, _ := r.Metric("avg_saving")
			got = m.Value
			found = true
		}
	}
	if !found {
		t.Fatal("fig4 produced no scenario-A average row")
	}
	ws := core.PaperModeWorkloads(core.ModeULE)
	for i := range ws {
		ws[i] = ws[i].ScaledTo(o.Instructions)
	}
	pairs, err := core.Pairs(yield.ScenarioA, core.ModeULE, ws, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := core.Summarize(yield.ScenarioA, core.ModeULE, pairs).AvgSavingPct
	if !closeTo(got, want, 1e-9) {
		t.Fatalf("fig4 average saving %.6f%% != core.Summarize %.6f%%", got, want)
	}
}

func closeTo(a, b, tol float64) bool {
	d := a - b
	return d < tol && d > -tol
}

// TestGridBuildsOnFirstUse pins the experiment type every grid
// registers through: nothing is built before the first Grid or Run
// call, the build runs once however many callers race on it, each Grid
// call returns its own slice, and Run and Finish receive the point
// added with the task at that ID.
func TestGridBuildsOnFirstUse(t *testing.T) {
	builds := 0
	e := &experiment[int]{
		name: "grid",
		grid: func(add func(sim.Task, int)) {
			builds++
			for i := 0; i < 3; i++ {
				add(sim.Task{Label: fmt.Sprint(i)}, 10*i)
			}
		},
		run: func(p int, _ sim.Task, _ *rand.Rand) (sim.Result, error) {
			return sim.Result{Metrics: []sim.Metric{sim.Num("p", float64(p))}}, nil
		},
		finish: func(results []sim.Result, points []int) ([]sim.Result, error) {
			for _, r := range results {
				if m, _ := r.Metric("p"); m.Value != float64(points[r.Task.ID]) {
					t.Errorf("finish: task %d ran point %v, points hold %d", r.Task.ID, m.Value, points[r.Task.ID])
				}
			}
			return results, nil
		},
	}
	if builds != 0 {
		t.Fatalf("grid built %d times before first use", builds)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.Grid()[0].Label = "scratch"
		}()
	}
	wg.Wait()
	if builds != 1 {
		t.Fatalf("grid built %d times, want 1", builds)
	}
	for id, tk := range e.Grid() {
		if tk.Label != fmt.Sprint(id) {
			t.Errorf("task %d label %q: an earlier caller's edit leaked into a fresh slice", id, tk.Label)
		}
	}
	res, err := sim.Runner{Workers: 2}.Run(e)
	if err != nil {
		t.Fatal(err)
	}
	for id, r := range res {
		if m, _ := r.Metric("p"); m.Value != float64(10*id) {
			t.Errorf("task %d ran point %v, want %d", id, m.Value, 10*id)
		}
	}
}

func TestBreakdownMetrics(t *testing.T) {
	b := core.Breakdown{CacheDynamic: 1, CacheLeakage: 2, EDC: 3, Core: 4}
	ms := breakdownMetrics("base", b)
	want := []string{"base_dyn", "base_leak", "base_edc", "base_core"}
	if len(ms) != len(want) {
		t.Fatalf("got %d metrics, want %d", len(ms), len(want))
	}
	values := []float64{1, 2, 3, 4}
	for i, m := range ms {
		if m.Name != want[i] || m.Value != values[i] {
			t.Fatalf("metric %d = %+v, want %s=%g", i, m, want[i], values[i])
		}
	}
}

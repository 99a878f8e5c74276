package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"edcache/internal/bench"
	"edcache/internal/core"
	"edcache/internal/sim"
	"edcache/internal/trace"
	"edcache/internal/yield"
)

// TestCorpusMetricsBitIdenticalToGeneratorStreams is the acceptance
// check of the decode-once port: every metric the arena-backed corpus
// sweep reports must equal — bit for bit, no tolerance — what a fresh
// generator-backed evaluation of the same grid point produces.
func TestCorpusMetricsBitIdenticalToGeneratorStreams(t *testing.T) {
	o := tinyOptions()
	res, err := sim.Runner{Workers: 8, Seed: 3}.Run(corpusExperiment(o))
	if err != nil {
		t.Fatal(err)
	}
	systems := map[string][2]*core.System{}
	for _, s := range scenarios {
		base := core.MustNewSystem(core.PaperConfig(s, core.Baseline))
		prop := core.MustNewSystem(core.PaperConfig(s, core.Proposed))
		systems[s.String()] = [2]*core.System{base, prop}
	}
	checked := 0
	for _, r := range res {
		if r.Task.Params["workload"] == "average" {
			continue
		}
		m := core.ModeHP
		if r.Task.Params["mode"] == core.ModeULE.String() {
			m = core.ModeULE
		}
		w := o.workload(r.Task.Params["workload"]).w
		pair := systems[r.Task.Params["scenario"]]
		rb, err := pair[0].Run(w, m) // generator-backed reference
		if err != nil {
			t.Fatal(err)
		}
		rp, err := pair[1].Run(w, m)
		if err != nil {
			t.Fatal(err)
		}
		p := core.Pair{Workload: w.Name, Base: rb, Prop: rp}
		want := map[string]float64{
			"base_epi":      rb.EPI.Total(),
			"prop_epi":      rp.EPI.Total(),
			"saving":        p.SavingPct(),
			"time_increase": p.TimeIncreasePct(),
			"il1_miss":      missPct(rp.Stats.IMisses, rp.Stats.IAccesses),
			"dl1_miss":      missPct(rp.Stats.DMisses, rp.Stats.DAccesses),
			"cpi":           rp.Stats.CPI(),
		}
		for name, wv := range want {
			got, ok := r.Metric(name)
			if !ok {
				t.Fatalf("%s: missing metric %s", r.Task.Label, name)
			}
			if got.Value != wv {
				t.Errorf("%s: %s = %v from the arena, %v from the generator", r.Task.Label, name, got.Value, wv)
			}
		}
		checked++
	}
	if want := 2 * 2 * len(bench.Full()); checked != want {
		t.Fatalf("compared %d grid points, want %d", checked, want)
	}
}

func TestTraceSourceNamesDisambiguateCollidingBasenames(t *testing.T) {
	names := traceSourceNames([]string{"runs/a/cap.trace", "runs/b/cap.trace", "other.trace"})
	if names["runs/a/cap.trace"] != "trace:runs/a/cap.trace" ||
		names["runs/b/cap.trace"] != "trace:runs/b/cap.trace" {
		t.Errorf("colliding basenames not disambiguated: %v", names)
	}
	if names["other.trace"] != "trace:other.trace" {
		t.Errorf("unique basename not shortened: %v", names)
	}
}

// writeWorkloadTrace serialises a workload to a v2 trace file.
func writeWorkloadTrace(t *testing.T, w bench.Workload, o trace.V2Options) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), w.Name+".trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.WriteV2(f, w.Stream(), o); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCorpusTraceFileSource closes the capture-then-sweep loop on the
// engine: a captured trace file becomes a corpus grid point whose
// metrics are bit-identical to the generator point it was captured
// from, and the sweep stays workers-invariant with file sources in the
// grid.
func TestCorpusTraceFileSource(t *testing.T) {
	o := tinyOptions()
	w := o.workload("gsm_c").w
	o.TraceFiles = []string{writeWorkloadTrace(t, w, trace.V2Options{Compress: true})}

	var outputs [][]byte
	var results []sim.Result
	for _, workers := range []int{1, 8} {
		res, err := sim.Runner{Workers: workers, Seed: 3}.Run(corpusExperiment(o))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		sink, err := sim.NewSink("json", &buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := sink.Write(res); err != nil {
			t.Fatal(err)
		}
		outputs = append(outputs, buf.Bytes())
		results = res
	}
	if !bytes.Equal(outputs[0], outputs[1]) {
		t.Error("file-backed corpus sweep differs between 1 and 8 workers")
	}

	// Index generator-backed gsm_c rows and compare the trace rows.
	gsm := map[string]sim.Result{}
	traceRows := 0
	for _, r := range results {
		key := r.Task.Params["scenario"] + "/" + r.Task.Params["mode"]
		if r.Task.Params["workload"] == "gsm_c" {
			gsm[key] = r
		}
		if r.Task.Params["trace"] == "" {
			continue
		}
		traceRows++
		if !strings.HasPrefix(r.Task.Params["workload"], "trace:") {
			t.Errorf("trace row %q lacks the trace: workload prefix", r.Task.Label)
		}
		ref, ok := gsm[key]
		if !ok {
			t.Fatalf("no generator gsm_c row for %s", key)
		}
		for _, m := range r.Metrics {
			want, ok := ref.Metric(m.Name)
			if !ok || m.Value != want.Value {
				t.Errorf("%s: trace-backed %s = %v, generator-backed = %v", r.Task.Label, m.Name, m.Value, want.Value)
			}
		}
	}
	if traceRows != 4 { // scenarios × modes
		t.Errorf("got %d trace-backed rows, want 4", traceRows)
	}
}

// TestCorpusMissTraceFileSource sweeps a captured file across the
// capacity axis and pins it to the generator-backed rows of the same
// workload.
func TestCorpusMissTraceFileSource(t *testing.T) {
	o := tinyOptions()
	o.Instructions = 10_000
	w := o.workload("adversarial_l1").w
	o.TraceFiles = []string{writeWorkloadTrace(t, w, trace.V2Options{})}
	res, err := sim.Runner{Workers: 8, Seed: 3}.Run(corpusMissExperiment(o))
	if err != nil {
		t.Fatal(err)
	}
	gen := map[string]float64{}
	traceRows := 0
	for _, r := range res {
		m, ok := r.Metric("miss_rate")
		if !ok {
			t.Fatalf("%s: no miss_rate", r.Task.Label)
		}
		if r.Task.Params["workload"] == "adversarial_l1" {
			gen[r.Task.Params["ways"]] = m.Value
		}
	}
	for _, r := range res {
		if r.Task.Params["trace"] == "" {
			continue
		}
		traceRows++
		m, _ := r.Metric("miss_rate")
		if want := gen[r.Task.Params["ways"]]; m.Value != want {
			t.Errorf("%s: trace-backed miss rate %v, generator-backed %v", r.Task.Label, m.Value, want)
		}
	}
	if traceRows != 4 { // ways axis
		t.Errorf("got %d trace-backed rows, want 4", traceRows)
	}
}

// TestPhaseEPITraceFileSource feeds phase-epi one phase-annotated and
// one unannotated capture: the first reports per-phase metrics
// matching the workload it was captured from, the second a clear
// "phases: none" row instead of failing the sweep.
func TestPhaseEPITraceFileSource(t *testing.T) {
	o := tinyOptions()
	o.Instructions = 4_000
	phased := bench.Phased("phased_capture", bench.BigBench, 4096, 1_000, 77).ScaledTo(o.Instructions)
	phasedPath := writeWorkloadTrace(t, phased, trace.V2Options{Phases: true})
	flat := o.workload("adpcm_c").w
	flatPath := writeWorkloadTrace(t, flat, trace.V2Options{})
	o.TraceFiles = []string{phasedPath, flatPath}

	res, err := sim.Runner{Workers: 4, Seed: 3}.Run(phaseEPIExperiment(o))
	if err != nil {
		t.Fatal(err)
	}
	var phasedRows, flatRows int
	sysA := [2]*core.System{
		core.MustNewSystem(core.PaperConfig(yield.ScenarioA, core.Baseline)),
		core.MustNewSystem(core.PaperConfig(yield.ScenarioA, core.Proposed)),
	}
	for _, r := range res {
		switch {
		case strings.HasSuffix(r.Task.Params["trace"], "phased_capture.trace"):
			phasedRows++
			if _, ok := r.Metric("p1_prop_epi"); !ok {
				t.Errorf("%s: phase-annotated capture reported no per-phase metrics", r.Task.Label)
			}
			if r.Task.Params["scenario"] != "A" || r.Task.Params["mode"] != "ULE" {
				continue
			}
			// Cross-check one point against a direct generator run.
			rp, err := sysA[1].Run(phased, core.ModeULE)
			if err != nil {
				t.Fatal(err)
			}
			got, _ := r.Metric("run_prop_epi")
			if got.Value != rp.EPI.Total() {
				t.Errorf("captured phased run EPI %v, generator %v", got.Value, rp.EPI.Total())
			}
		case r.Task.Params["trace"] != "":
			flatRows++
			m, ok := r.Metric("phases")
			if !ok || !strings.Contains(m.Text, "none") {
				t.Errorf("%s: unannotated capture should report phases none, got %+v", r.Task.Label, m)
			}
		}
	}
	if phasedRows != 4 || flatRows != 4 {
		t.Errorf("got %d phased and %d flat trace rows, want 4 and 4", phasedRows, flatRows)
	}
}

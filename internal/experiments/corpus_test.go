package experiments

import (
	"strconv"
	"testing"

	"edcache/internal/bench"
	"edcache/internal/cache"
	"edcache/internal/sim"
)

// TestCorpusSweepCoversFullCorpus pins the corpus experiment to the
// registered workload set: every workload of bench.Full() appears in
// both modes and scenarios, and the Finish hook adds corpus averages.
func TestCorpusSweepCoversFullCorpus(t *testing.T) {
	e := corpusExperiment(tinyOptions())
	grid := e.Grid()
	if want := 2 * 2 * len(bench.Full()); len(grid) != want {
		t.Fatalf("corpus grid has %d tasks, want %d (scenarios × modes × workloads)", len(grid), want)
	}
	res, err := sim.Runner{Workers: 8, Seed: 3}.Run(e)
	if err != nil {
		t.Fatal(err)
	}
	averages := 0
	for _, r := range res {
		if r.Task.Params["workload"] == "average" {
			averages++
			if _, ok := r.Metric("avg_saving"); !ok {
				t.Errorf("average row %q missing avg_saving", r.Task.Label)
			}
		}
	}
	if averages != 4 {
		t.Errorf("got %d corpus-average rows, want 4 (scenario × mode)", averages)
	}
	// At ULE mode the proposed design's extra hit cycle must show up as
	// a positive slowdown for the dependent-load adversary.
	for _, r := range res {
		if r.Task.Params["workload"] == "ptrchase_s" && r.Task.Params["mode"] == "ULE" {
			m, ok := r.Metric("time_increase")
			if !ok || m.Value <= 0 {
				t.Errorf("%s: pointer chase at ULE shows no EDC slowdown (%+v)", r.Task.Label, m)
			}
		}
	}
}

// TestPhaseEPISweep pins the phase-aware family: the grid covers every
// phase-annotated workload in both scenarios and modes, and every task
// reports EPI and miss rate per working-set regime with regimes that
// actually differ.
func TestPhaseEPISweep(t *testing.T) {
	phased := 0
	for _, w := range bench.Full() {
		if w.HasPhases() {
			phased++
		}
	}
	if phased == 0 {
		t.Fatal("corpus has no phase-annotated workloads")
	}
	o := tinyOptions()
	// phased_mix switches regimes every 40k instructions; one full
	// cycle through all four phases needs 160k.
	o.Instructions = 160_000
	e := phaseEPIExperiment(o)
	grid := e.Grid()
	if want := 2 * 2 * phased; len(grid) != want {
		t.Fatalf("phase-epi grid has %d tasks, want %d", len(grid), want)
	}
	res, err := sim.Runner{Workers: 4, Seed: 3}.Run(e)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		hot, okHot := r.Metric("p0_prop_epi")
		cold, okCold := r.Metric("p3_prop_epi")
		if !okHot || !okCold {
			t.Fatalf("%s: missing per-phase EPI metrics", r.Task.Label)
		}
		// Phase 0 reuses 1/8 of the footprint, phase 3 walks it all at
		// random: the cold regime must cost more energy per instruction.
		if cold.Value <= hot.Value {
			t.Errorf("%s: cold-phase EPI %.2f not above hot-phase %.2f", r.Task.Label, cold.Value, hot.Value)
		}
		if _, ok := r.Metric("p3_dl1_miss"); !ok {
			t.Errorf("%s: missing per-phase miss rate", r.Task.Label)
		}
		if r.Detail == "" {
			t.Errorf("%s: missing per-phase detail table", r.Task.Label)
		}
	}
}

// TestCorpusMissProfileBitIdenticalToReplay is the capacity axis's
// replacement oracle: the single stack-distance profile pass a source
// now gets must report, for every associativity on the axis, exactly
// the reference and miss counts the retired per-geometry ReplayDataRefs
// loop measured — not approximately, bit for bit.
func TestCorpusMissProfileBitIdenticalToReplay(t *testing.T) {
	arenas := bench.NewArenaCache()
	for _, name := range []string{"adpcm_c", "ptrchase_l", "adversarial_l1", "stencil_dsp"} {
		w, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		w = w.ScaledTo(30_000)
		arena := arenas.Get(w)
		prof := cache.MustNewStackProfile(corpusMissGeometry)
		profRefs := ProfileDataRefs(arena.Cursor(), prof)
		for k := 1; k <= corpusMissGeometry.Ways; k++ {
			geom := corpusMissGeometry
			geom.Ways = k
			refs, misses := ReplayDataRefs(arena.Cursor(), cache.MustNew(geom))
			if profRefs != refs {
				t.Fatalf("%s: profile saw %d refs, replay saw %d", name, profRefs, refs)
			}
			if got := prof.Misses(k); got != uint64(misses) {
				t.Errorf("%s ways=%d: profile misses %d, replay misses %d", name, k, got, misses)
			}
		}
	}
}

// TestCorpusMissSweep checks the locality sweep's physics: miss rate is
// non-increasing in capacity for every workload, and the conflict
// adversary stays ~100 % missing even at full capacity while fitting
// workloads drop to near zero.
func TestCorpusMissSweep(t *testing.T) {
	o := tinyOptions()
	o.Instructions = 30_000 // long enough for steady state past warm-up
	res, err := sim.Runner{Workers: 8, Seed: 3}.Run(corpusMissExperiment(o))
	if err != nil {
		t.Fatal(err)
	}
	miss := map[string]map[int]float64{}
	for _, r := range res {
		w := r.Task.Params["workload"]
		k, err := strconv.Atoi(r.Task.Params["ways"])
		if err != nil {
			t.Fatal(err)
		}
		m, ok := r.Metric("miss_rate")
		if !ok {
			t.Fatalf("%s: no miss_rate metric", r.Task.Label)
		}
		if miss[w] == nil {
			miss[w] = map[int]float64{}
		}
		miss[w][k] = m.Value
	}
	for w, byWays := range miss {
		if byWays[1]+1e-9 < byWays[8] {
			t.Errorf("%s: miss rate grows with capacity (%.3f%% @1 way, %.3f%% @8 ways)", w, byWays[1], byWays[8])
		}
	}
	if m := miss["adversarial_l1"][8]; m < 95 {
		t.Errorf("adversary misses %.1f%% at full capacity, want ≥ 95%% (conflict, not capacity)", m)
	}
	if m := miss["adpcm_c"][8]; m > 5 {
		t.Errorf("adpcm_c misses %.1f%% at full capacity, want near zero", m)
	}
	// The geometry-calibrated capacity axis: a footprint sized to fit
	// the full cache streams without steady-state misses at 8 ways,
	// while the 8× footprint keeps missing — capacity pressure tracking
	// the configured geometry, not a hand-picked constant.
	for _, name := range []string{"cal_stencil_fit", "cal_stencil_x8", "cal_chase_fit", "cal_chase_x8"} {
		if _, ok := miss[name]; !ok {
			t.Fatalf("calibrated workload %s missing from the capacity axis", name)
		}
	}
	if fit, x8 := miss["cal_stencil_fit"][8], miss["cal_stencil_x8"][8]; x8 <= fit {
		t.Errorf("stencil 8× footprint misses %.1f%% at full capacity vs fit's %.1f%% — capacity pressure not visible", x8, fit)
	}
	// The chase gives the sharp signal: a fitting working set settles to
	// cold misses only, an 8× one misses on most dependent loads.
	if fit := miss["cal_chase_fit"][8]; fit > 5 {
		t.Errorf("fitting chase misses %.1f%% at full capacity, want near zero", fit)
	}
	if x8 := miss["cal_chase_x8"][8]; x8 < 50 {
		t.Errorf("8× chase misses only %.1f%% at full capacity, want ≥ 50%%", x8)
	}
}

// TestCorpusMissGroupStreamsCalibratedSources holds corpus-miss's
// calibrated rows to an oracle that shares nothing with the sweep: one
// ReplayDataRefs per ways-k cache over a fresh generator stream. It
// also pins what the sweep leaves in the run's slab memo: the
// registered workloads' slabs, which the corpus grid replays too, and
// none for the calibrated instances, which are read once and streamed.
func TestCorpusMissGroupStreamsCalibratedSources(t *testing.T) {
	o := tinyOptions()
	o.Instructions = 20_000
	o = o.withDefaults()
	reg := sim.NewRegistry()
	RegisterAll(reg, o)
	res, err := sim.Runner{Workers: 2, Seed: 3}.RunAll(reg, []string{"corpus-miss"})
	if err != nil {
		t.Fatal(err)
	}
	calibrated := map[string]bench.Workload{}
	for _, w := range bench.CalibratedCorpus(corpusMissGeometry) {
		calibrated[w.Name] = w.ScaledTo(o.Instructions)
	}
	checked := 0
	for _, r := range res {
		if r.Task.Params["suite"] != "calibrated" {
			continue
		}
		w, ok := calibrated[r.Task.Params["workload"]]
		if !ok {
			t.Fatalf("%s: unknown calibrated workload", r.Task.Label)
		}
		geom := corpusMissGeometry
		var err error
		if geom.Ways, err = strconv.Atoi(r.Task.Params["ways"]); err != nil {
			t.Fatal(err)
		}
		refs, misses := ReplayDataRefs(w.Stream(), cache.MustNew(geom))
		gotRefs, _ := r.Metric("refs")
		gotRate, _ := r.Metric("miss_rate")
		if gotRefs.Value != float64(refs) || gotRate.Value != 100*float64(misses)/float64(refs) {
			t.Errorf("%s: refs %v, miss_rate %v; a replay of a fresh stream gives %d refs, %v",
				r.Task.Label, gotRefs.Value, gotRate.Value, refs, 100*float64(misses)/float64(refs))
		}
		checked++
	}
	if want := 4 * len(bench.CalibratedCorpus(corpusMissGeometry)); checked != want {
		t.Fatalf("checked %d calibrated rows, want %d", checked, want)
	}
	if got, want := o.slabs.Len(), len(bench.Full()); got != want {
		t.Errorf("corpus-miss left %d slabs in the slab memo, want %d (one per registered workload)", got, want)
	}
}

// TestCorpusMissGroupOneUnitPerSource pins the grid's dispatch groups:
// a source's ways axis shares one Group, and no two sources share one.
func TestCorpusMissGroupOneUnitPerSource(t *testing.T) {
	o := tinyOptions()
	o.TraceFiles = []string{"a/x.trace", "b/x.trace"} // one basename, two sources
	// A source is its rendered suite, workload and trace coordinates.
	bySource := map[[3]string]string{}
	owner := map[string][3]string{}
	for _, tk := range corpusMissExperiment(o).Grid() {
		k := [3]string{tk.Params["suite"], tk.Params["workload"], tk.Params["trace"]}
		if tk.Group == "" {
			t.Fatalf("%s: no group", tk.Label)
		}
		if g, ok := bySource[k]; ok && g != tk.Group {
			t.Errorf("%s: group %q, its source's other tasks have %q", tk.Label, tk.Group, g)
		}
		if k2, ok := owner[tk.Group]; ok && k2 != k {
			t.Errorf("sources %+v and %+v share group %q", k, k2, tk.Group)
		}
		bySource[k], owner[tk.Group] = tk.Group, k
	}
	if want := len(bench.Full()) + len(bench.CalibratedCorpus(corpusMissGeometry)) + 2; len(bySource) != want {
		t.Errorf("%d sources, want %d", len(bySource), want)
	}
}

package experiments

import (
	"reflect"
	"testing"

	"edcache/internal/bench"
	"edcache/internal/core"
	"edcache/internal/ecc"
	"edcache/internal/sim"
	"edcache/internal/yield"
)

// TestPairPayloadSurvivesCheckpoint is the stable-serialization contract
// behind store-backed sweeps: a real core.Pair — the Result.Data payload
// the figure and corpus grids attach for their Finish aggregation — must
// round-trip through sim.EncodeResult/DecodeResult byte-exactly,
// including the hierarchy (Report.Levels) and phase (Report.Phases)
// extensions. If this breaks, a resumed run's Finish averages silently
// diverge from an uninterrupted one.
func TestPairPayloadSurvivesCheckpoint(t *testing.T) {
	sim.RegisterPayload[core.Pair]("core.Pair")

	base, err := core.NewSystem(core.PaperConfig(yield.ScenarioA, core.Baseline))
	if err != nil {
		t.Fatal(err)
	}
	l2 := core.L2Config{Sets: 128, Ways: 8, LineBytes: 32, Latency: 6, Protection: ecc.KindSECDED}
	prop, err := core.NewSystem(core.PaperConfig(yield.ScenarioA, core.Proposed).WithL2(l2))
	if err != nil {
		t.Fatal(err)
	}

	// A phased workload behind a two-level proposed system populates
	// every optional Report field at once: Levels, Phases, and the
	// per-phase Levels split.
	w := bench.Phased("ckpt_phased", bench.BigBench, 4096, 1000, 7).ScaledTo(6_000)
	baseRep, err := base.Run(w, core.ModeHP)
	if err != nil {
		t.Fatal(err)
	}
	propRep, err := prop.Run(w, core.ModeHP)
	if err != nil {
		t.Fatal(err)
	}
	if len(propRep.Levels) != 2 || len(propRep.Phases) == 0 {
		t.Fatalf("fixture too weak: levels=%d phases=%d — the round trip would not cover them",
			len(propRep.Levels), len(propRep.Phases))
	}

	pair := core.Pair{Workload: w.Name, Base: baseRep, Prop: propRep}
	r := sim.Result{
		Experiment: "fig3",
		Task:       sim.Task{ID: 2, Label: w.Name, Params: sim.P("workload", w.Name)},
		Metrics:    []sim.Metric{sim.NumU("epi", propRep.EPI.Total(), "pJ/i")},
		Data:       pair,
	}
	b, ok := sim.EncodeResult(r)
	if !ok {
		t.Fatal("a real Pair-carrying result is not checkpointable")
	}
	got, err := sim.DecodeResult(b)
	if err != nil {
		t.Fatal(err)
	}
	gotPair, isPair := got.Data.(core.Pair)
	if !isPair {
		t.Fatalf("payload lost its type: %T", got.Data)
	}
	if !reflect.DeepEqual(gotPair, pair) {
		t.Fatalf("Pair changed across the checkpoint round trip:\n got %+v\nwant %+v", gotPair, pair)
	}
	// The derived figures must agree to the last bit, not just "close":
	// resumed Finish aggregation reuses these exact values.
	if gotPair.SavingPct() != pair.SavingPct() || gotPair.TimeIncreasePct() != pair.TimeIncreasePct() {
		t.Fatal("derived percentages differ after round trip")
	}
}

// TestCanonicalStringCoversResultShapingOptions pins CanonicalString's
// contract: options that change result bytes must change the string
// (they key the result store), options proven not to (Workers,
// MapThreshold) must not — or every worker-count change would cold the
// cache.
func TestCanonicalStringCoversResultShapingOptions(t *testing.T) {
	baseOpt := Options{Instructions: 2_000, Trials: 40}
	baseStr := baseOpt.CanonicalString()

	shaping := map[string]Options{
		"instructions": {Instructions: 3_000, Trials: 40},
		"trials":       {Instructions: 2_000, Trials: 50},
		"traces":       {Instructions: 2_000, Trials: 40, TraceFiles: []string{"a.trc"}},
		"l2":           {Instructions: 2_000, Trials: 40, L2Geometries: []L2Geometry{{Sets: 64, Ways: 4}}},
		"l2lat":        {Instructions: 2_000, Trials: 40, L2Latency: 9},
	}
	for name, o := range shaping {
		if o.CanonicalString() == baseStr {
			t.Errorf("changing %s does not change CanonicalString — stale cache hits would serve wrong results", name)
		}
	}

	neutral := map[string]Options{
		"workers":      {Instructions: 2_000, Trials: 40, Workers: 13},
		"mapthreshold": {Instructions: 2_000, Trials: 40, MapThreshold: 1},
	}
	for name, o := range neutral {
		if o.CanonicalString() != baseStr {
			t.Errorf("%s changes CanonicalString — it cannot change result bytes, so it must not split the cache", name)
		}
	}
	if baseOpt.CanonicalString() != baseStr {
		t.Error("CanonicalString is not stable across calls")
	}
}

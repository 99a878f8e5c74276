package experiments

import (
	"fmt"
	"math/rand"

	"edcache/internal/core"
	"edcache/internal/cpu"
	"edcache/internal/faults"
	"edcache/internal/sim"
	"edcache/internal/yield"
)

// funcCorrWorkload is the corpus workload the functional campaign
// replays: a SmallBench stencil whose code and data fit the 1 KB
// single-way geometry the bit-accurate FunctionalCache models, so the
// protected arrays see steady reuse rather than pure compulsory
// misses.
const funcCorrWorkload = "stencil_s"

// funcCorrInstructions caps the per-die replay length: the protected
// path runs every fetched and accessed word through encoder → fault
// map → decoder, which is orders of magnitude more expensive than the
// performance model, and correction counts converge long before the
// paper-scale trace length.
const funcCorrInstructions = 60_000

// funcCorrExperiment puts the protected layer on the engine (the
// ROADMAP follow-up): each grid task replays one corpus workload
// through bit-accurate EDC-protected L1s over freshly sampled faulty
// dice at a swept fault probability (multiples of the sized ULE-mode
// Pf, the paper's operating point). Dice that yield screening would
// reject (more faults in one word than the code corrects) are counted
// and skipped, exactly as manufacturing test would; a task's accepted
// dice replay together in one core.ReplayFunctionalGroup pass (one
// fault-free IL1, one faulty DL1 per die) and must show zero
// uncorrectable reads, and the reported correction counts show how
// hard the decoders work as Pf grows.
func funcCorrExperiment(o Options) sim.Experiment {
	o = o.withDefaults()
	// The sized ULE-mode Pf puts a couple of hard faults on every die;
	// much past 10× of it, screening rejects nearly all silicon (a
	// word collects more faults than the code corrects), so the axis
	// spans the regime where dice are still manufacturable and the
	// decoders visibly work harder as Pf grows.
	pfScales := []float64{0.3, 1, 3, 10}
	dice := o.Trials / 100
	if dice < 2 {
		dice = 2
	}
	if dice > 12 {
		dice = 12
	}
	// The stencil at the capped length: the corpus's own slab of it
	// when the run's trace is no longer than the cap.
	src := o.workload(funcCorrWorkload)
	src.w = src.w.ScaledTo(min(o.Instructions, funcCorrInstructions))
	type point struct {
		s     yield.Scenario
		scale float64
	}
	return &experiment[point]{
		name: "func-corr",
		desc: "functional correction campaign — corpus replay through bit-accurate protected caches over sampled faulty dice, correction counts vs Pf",
		grid: func(add func(sim.Task, point)) {
			for _, s := range scenarios {
				for _, scale := range pfScales {
					add(sim.Task{
						Label: fmt.Sprintf("scenario=%v pf=%gx %s", s, scale, funcCorrWorkload),
						Params: sim.P("scenario", s.String(), "pf_scale", fmt.Sprintf("%g", scale),
							"workload", funcCorrWorkload),
					}, point{s, scale})
				}
			}
		},
		run: func(p point, _ sim.Task, rng *rand.Rand) (sim.Result, error) {
			res, err := o.sizing(p.s)
			if err != nil {
				return sim.Result{}, err
			}
			arena, err := o.slab(src)
			if err != nil {
				return sim.Result{}, err
			}

			// The proposed ULE-mode way: its code kind sizes the word
			// geometry the fault generator fills, its single-fault
			// tolerance is the screening criterion (matching the
			// reliability experiment's convention).
			kind := p.s.ProposedCode()
			check := kind.CheckBits()
			geom := faults.WayGeometry{
				Lines: 32, WordsPerLine: 8,
				DataWordBits: 32 + check, TagWordBits: 26 + check,
			}
			pf := res.ProposedPf * p.scale

			// Draw every die first, in rng order, then replay the
			// accepted ones as one group: one pass over the slab, one
			// classification and one fault-free IL1 for all of them.
			var rejected, faultCount int
			var dl1s []*core.FunctionalCache
			for d := 0; d < dice; d++ {
				m, err := faults.Generate(geom, pf, rng)
				if err != nil {
					return sim.Result{}, err
				}
				faultCount += m.Count()
				if !m.Usable(1) {
					rejected++
					continue
				}
				dl1, err := core.NewFunctionalCache(32, 8, kind, m)
				if err != nil {
					return sim.Result{}, err
				}
				dl1s = append(dl1s, dl1)
			}
			accepted := len(dl1s)
			// A task that accepts no die replays nothing and reports 0
			// corrections, so every row carries the same columns.
			var corrected, uncorrectable int
			var replayed uint64
			var perDie, perKI float64
			if accepted > 0 {
				il1, err := core.NewFunctionalCache(32, 8, kind, nil)
				if err != nil {
					return sim.Result{}, err
				}
				sts, err := core.ReplayFunctionalGroup(cpu.Config{MemLatency: 20}, il1, dl1s, 1, arena.NewCursor())
				if err != nil {
					return sim.Result{}, err
				}
				for d, dl1 := range dl1s {
					replayed += sts[d].Instructions
					corrected += dl1.CorrectedReads
					uncorrectable += dl1.Uncorrectable
				}
				perDie, perKI = float64(corrected)/float64(accepted), 1000*float64(corrected)/float64(replayed)
			}
			return sim.Result{Metrics: []sim.Metric{
				sim.Fmt("pf", pf, "%.3e"),
				sim.Num("dice", float64(dice)),
				sim.Num("accepted", float64(accepted)),
				sim.Num("rejected", float64(rejected)),
				sim.Fmt("faults_per_die", float64(faultCount)/float64(dice), "%.2f"),
				sim.Num("uncorrectable", float64(uncorrectable)),
				sim.Fmt("corrected_per_die", perDie, "%.1f"),
				sim.Fmt("corrected_per_ki", perKI, "%.3f"),
			}}, nil
		},
	}
}

package faults

import (
	"fmt"
	"math/rand"
	"runtime"

	"edcache/internal/sim"
)

// Campaign is a Monte-Carlo silicon-sampling campaign: Trials
// independent fault maps are drawn for the geometry at per-bit
// probability Pf, and each sampled die is accepted when no word holds
// more than Tolerable hard faults (Eq. (1)/(2) acceptance).
type Campaign struct {
	Geometry  WayGeometry
	Pf        float64
	Trials    int
	Tolerable int
}

// CampaignResult summarises one campaign.
type CampaignResult struct {
	Usable int // dies accepted
	Trials int
}

// Yield returns the measured usable fraction.
func (r CampaignResult) Yield() float64 {
	if r.Trials == 0 {
		return 0
	}
	return float64(r.Usable) / float64(r.Trials)
}

// Run executes the campaign on a worker pool. Each worker owns one RNG
// and one fault map, reseeded from (seed, trial index) and redrawn per
// trial, so the result is identical for any worker count — the property
// the engine's determinism test locks in. The RNG's source is a
// splitMix64, whose reseed costs one store.
func (c Campaign) Run(seed int64, workers int) (CampaignResult, error) {
	if c.Trials <= 0 {
		return CampaignResult{}, fmt.Errorf("faults: campaign needs a positive trial count, got %d", c.Trials)
	}
	if err := validate(c.Geometry, c.Pf); err != nil {
		return CampaignResult{}, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, c.Trials)
	// Worker k runs a contiguous block of trials, none of which can fail.
	usable, _ := sim.Map(workers, workers, func(k int) (int, error) {
		rng, m := rand.New(new(splitMix64)), Empty(c.Geometry)
		n := 0
		for i := k * c.Trials / workers; i < (k+1)*c.Trials/workers; i++ {
			rng.Seed(sim.SubSeed(seed, "faults.campaign", i))
			m.redraw(c.Pf, rng)
			if m.Usable(c.Tolerable) {
				n++
			}
		}
		return n, nil
	})
	res := CampaignResult{Trials: c.Trials}
	for _, u := range usable {
		res.Usable += u
	}
	return res, nil
}

// splitMix64 is a rand.Source64 with one word of state, so Seed is O(1)
// where rand.NewSource's is 607 words: SplitMix64 (Steele, Lea & Flood,
// "Fast splittable pseudorandom number generators", OOPSLA 2014).
type splitMix64 uint64

func (s *splitMix64) Seed(seed int64) { *s = splitMix64(seed) }

func (s *splitMix64) Uint64() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (s *splitMix64) Int63() int64 { return int64(s.Uint64() >> 1) }

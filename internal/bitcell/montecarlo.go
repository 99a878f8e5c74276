package bitcell

import (
	"math"
	"math/rand"

	"edcache/internal/sim"
)

// MonteCarloResult is an importance-sampling failure-probability estimate.
type MonteCarloResult struct {
	Pf       float64 // estimated failure probability (including floor)
	StdErr   float64 // standard error of the variational part
	Samples  int
	Analytic float64 // closed-form value, for cross-checking
}

// isChunk draws `samples` importance-sampling weights and returns their
// sum and sum of squares. Proposal: margin* ~ N(shift, sigma) with
// shift = 0 (the failure boundary). Weight for sample x: f(x)/g(x) with
// f = N(mu, sigma), g = N(0, sigma):
//
//	w(x) = exp( (−(x−mu)² + x²) / (2σ²) ) = exp( (2x·mu − mu²) / (2σ²) ).
func isChunk(mu, sigma float64, samples int, rng *rand.Rand) (sum, sumSq float64) {
	for i := 0; i < samples; i++ {
		x := sigma * rng.NormFloat64()
		if x < 0 {
			w := math.Exp((2*x*mu - mu*mu) / (2 * sigma * sigma))
			sum += w
			sumSq += w * w
		}
	}
	return sum, sumSq
}

// mcShard is the per-shard sample count of the parallel estimator. The
// shard plan depends only on the requested sample count, never on the
// worker count, so the reduced estimate is bit-identical for any pool
// size.
const mcShard = 4096

// MonteCarloFailureProbN estimates the cell's hard-fault probability at
// the given voltage by mean-shift importance sampling, mirroring the
// approach of Chen et al. (ICCAD 2007) that the paper uses: the margin
// distribution N(mu, sigma) is sampled under a proposal N(0, sigma)
// centred on the failure boundary, and each failing sample is weighted by
// the density ratio. This turns a 1e-6-probability tail, which plain
// Monte-Carlo would need ~1e8 samples to resolve, into an estimate with a
// few percent relative error at ~1e4 samples.
//
// The sample loop is sharded across a worker pool: samples are split
// into fixed-size sub-seeded shards whose partial sums are reduced in
// shard order, so the estimate is bit-identical for any worker count.
func MonteCarloFailureProbN(c Cell, vcc float64, samples int, seed int64, workers int) MonteCarloResult {
	mu := c.MarginMean(vcc)
	sigma := c.MarginSigma(vcc)
	shards := (samples + mcShard - 1) / mcShard
	type partial struct{ sum, sumSq float64 }
	parts, err := sim.Map(workers, shards, func(i int) (partial, error) {
		count := mcShard
		if i == shards-1 {
			count = samples - i*mcShard
		}
		rng := rand.New(rand.NewSource(sim.SubSeed(seed, "bitcell.mc", i)))
		s, sq := isChunk(mu, sigma, count, rng)
		return partial{s, sq}, nil
	})
	if err != nil { // unreachable: shards never fail
		panic(err)
	}
	var sum, sumSq float64
	for _, p := range parts {
		sum += p.sum
		sumSq += p.sumSq
	}
	n := float64(samples)
	mean := sum / n
	variance := (sumSq/n - mean*mean) / n
	if variance < 0 {
		variance = 0
	}
	return MonteCarloResult{
		Pf:       mean + c.FailureFloor(vcc),
		StdErr:   math.Sqrt(variance),
		Samples:  samples,
		Analytic: c.FailureProb(vcc),
	}
}

// NaiveMonteCarloFailureProb is the unshifted estimator, retained to
// demonstrate (in tests and the yieldsweep example) why importance
// sampling is necessary for the Pf magnitudes the methodology targets.
func NaiveMonteCarloFailureProb(c Cell, vcc float64, samples int, seed int64) MonteCarloResult {
	mu := c.MarginMean(vcc)
	sigma := c.MarginSigma(vcc)
	rng := rand.New(rand.NewSource(seed))
	fails := 0
	for i := 0; i < samples; i++ {
		if mu+sigma*rng.NormFloat64() < 0 {
			fails++
		}
	}
	n := float64(samples)
	p := float64(fails) / n
	return MonteCarloResult{
		Pf:       p + c.FailureFloor(vcc),
		StdErr:   math.Sqrt(p * (1 - p) / n),
		Samples:  samples,
		Analytic: c.FailureProb(vcc),
	}
}

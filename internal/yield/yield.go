// Package yield implements the yield mathematics of the paper: the
// per-word survival probability of Eq. (1), the cache-level yield of
// Eq. (2), the required-Pf solver behind the paper's "99 % yield for an
// 8 KB cache ⇒ Pf = 1.22e-6" example, and the complete Fig. 2 design
// methodology that sizes the baseline 10T and the proposed 8T+EDC cells.
package yield

import (
	"fmt"
	"math"
)

// WordSurvival evaluates Eq. (1) of the paper: the probability that a
// protected word of totalBits = n+k bits (n payload bits plus k check
// bits) contains at most `tolerable` hard-faulty bits,
//
//	P = Σ_{i=0}^{tolerable} C(n+k, i) · Pf^i · (1−Pf)^(n+k−i).
//
// tolerable is 0 for unprotected or soft-error-reserved words, 1 when the
// code can dedicate a correction to a hard fault (SECDED in scenario A,
// DECTED in scenario B).
func WordSurvival(pf float64, totalBits, tolerable int) float64 {
	if pf < 0 || pf > 1 {
		panic(fmt.Sprintf("yield: Pf %g outside [0,1]", pf))
	}
	if tolerable < 0 || totalBits <= 0 {
		panic("yield: invalid word geometry")
	}
	sum := 0.0
	for i := 0; i <= tolerable && i <= totalBits; i++ {
		sum += binomPMF(totalBits, i, pf)
	}
	if sum > 1 {
		return 1
	}
	return sum
}

// binomPMF computes C(n,i)·p^i·(1−p)^(n−i) in log space for robustness at
// the tiny probabilities the methodology works with.
func binomPMF(n, i int, p float64) float64 {
	if p == 0 {
		if i == 0 {
			return 1
		}
		return 0
	}
	if p == 1 {
		if i == n {
			return 1
		}
		return 0
	}
	lg := lnChoose(n, i) + float64(i)*math.Log(p) + float64(n-i)*math.Log1p(-p)
	return math.Exp(lg)
}

func lnChoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	lg, _ := math.Lgamma(float64(n + 1))
	lk, _ := math.Lgamma(float64(k + 1))
	lnk, _ := math.Lgamma(float64(n - k + 1))
	return lg - lk - lnk
}

// WayGeometry describes the protected storage of one cache way at the
// word granularity the paper uses (data words of 32 bits, tag words of
// 26 bits; Section III-C).
type WayGeometry struct {
	Lines        int // cache lines in the way
	WordsPerLine int // data words per line
	DataBits     int // payload bits per data word (paper: 32)
	TagBits      int // payload bits per tag word (paper: 26)
}

// DataWords returns DW of Eq. (2) for this way.
func (g WayGeometry) DataWords() int { return g.Lines * g.WordsPerLine }

// TagWords returns TW of Eq. (2) for this way (one tag word per line).
func (g WayGeometry) TagWords() int { return g.Lines }

// TotalBits returns total stored bits including per-word check bits.
func (g WayGeometry) TotalBits(dataCheck, tagCheck int) int {
	return g.DataWords()*(g.DataBits+dataCheck) + g.TagWords()*(g.TagBits+tagCheck)
}

// Validate reports whether the geometry is usable.
func (g WayGeometry) Validate() error {
	if g.Lines <= 0 || g.WordsPerLine <= 0 || g.DataBits <= 0 || g.TagBits <= 0 {
		return fmt.Errorf("yield: invalid way geometry %+v", g)
	}
	return nil
}

// WaySurvival evaluates Eq. (2) for one way: the probability that every
// data word and every tag word is usable given per-bit fault rate pf,
// per-word check bits, and per-word tolerable hard faults.
func WaySurvival(pf float64, g WayGeometry, dataCheck, tagCheck, tolerable int) float64 {
	pd := WordSurvival(pf, g.DataBits+dataCheck, tolerable)
	pt := WordSurvival(pf, g.TagBits+tagCheck, tolerable)
	// P(data)^DW · P(tag)^TW, in log space: word counts are small enough
	// that direct exponentiation is fine, but stay in logs for tiny pf
	// complements at large caches.
	lg := float64(g.DataWords())*math.Log(pd) + float64(g.TagWords())*math.Log(pt)
	return math.Exp(lg)
}

// RequiredPfBits inverts the fault-free yield equation Y = (1−Pf)^bits
// for a flat array of the given number of bits. For the paper's example —
// 99 % yield over the 8192 data bits of the 1 KB ULE way — it returns
// Pf = 1.22e-6 (Section III-C).
func RequiredPfBits(targetYield float64, bits int) float64 {
	if targetYield <= 0 || targetYield >= 1 {
		panic(fmt.Sprintf("yield: target yield %g outside (0,1)", targetYield))
	}
	if bits <= 0 {
		panic("yield: bits must be positive")
	}
	// 1 − Y^(1/bits), computed stably: −expm1(ln(Y)/bits).
	return -math.Expm1(math.Log(targetYield) / float64(bits))
}

package faults

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"edcache/internal/sim"
	"edcache/internal/yield"
)

// refMap is the reference fault map the dense WayFaults must agree
// with: a sparse map from word to its faults in injection order, where
// a read applies every fault in turn (so the last fault on a bit wins)
// and a word's fault count is its list length.
type refMap struct {
	geom  WayGeometry
	words map[WordKey][]BitFault
	count int
}

func refEmpty(g WayGeometry) *refMap {
	return &refMap{geom: g, words: make(map[WordKey][]BitFault)}
}

func (r *refMap) inject(k WordKey, f BitFault) {
	r.words[k] = append(r.words[k], f)
	r.count++
}

// refGenerate draws a map cell by cell in (line, word, bit) order: one
// Float64 per cell, then one Intn(2) stuck value per faulty cell.
func refGenerate(g WayGeometry, pf float64, rng *rand.Rand) *refMap {
	r := refEmpty(g)
	for line := 0; line < g.Lines; line++ {
		for word := 0; word <= g.WordsPerLine; word++ {
			bits := g.DataWordBits
			if word == g.WordsPerLine {
				bits = g.TagWordBits
			}
			for b := 0; b < bits; b++ {
				if rng.Float64() < pf {
					r.inject(WordKey{Line: line, Word: word}, BitFault{Pos: b, Stuck: uint64(rng.Intn(2))})
				}
			}
		}
	}
	return r
}

func (r *refMap) apply(k WordKey, cw uint64) uint64 {
	for _, f := range r.words[k] {
		cw = cw&^(1<<uint(f.Pos)) | f.Stuck<<uint(f.Pos)
	}
	return cw
}

func (r *refMap) maxPerWord() int {
	max := 0
	for _, fs := range r.words {
		if len(fs) > max {
			max = len(fs)
		}
	}
	return max
}

// sameAsRef compares every observable of m with the reference, on every
// data and tag word of the geometry.
func sameAsRef(t *testing.T, what string, m *WayFaults, r *refMap, rng *rand.Rand) {
	t.Helper()
	g := r.geom
	if m.Count() != r.count {
		t.Fatalf("%s: Count %d, reference %d", what, m.Count(), r.count)
	}
	if m.MaxPerWord() != r.maxPerWord() {
		t.Fatalf("%s: MaxPerWord %d, reference %d", what, m.MaxPerWord(), r.maxPerWord())
	}
	for tol := 0; tol <= 3; tol++ {
		if m.Usable(tol) != (r.maxPerWord() <= tol) {
			t.Fatalf("%s: Usable(%d) = %v, reference max %d", what, tol, m.Usable(tol), r.maxPerWord())
		}
	}
	for line := 0; line < g.Lines; line++ {
		for word := 0; word <= g.WordsPerLine; word++ {
			k := WordKey{Line: line, Word: word}
			if m.FaultsIn(k) != len(r.words[k]) {
				t.Fatalf("%s: FaultsIn(%+v) = %d, reference %d", what, k, m.FaultsIn(k), len(r.words[k]))
			}
			for _, cw := range []uint64{0, ^uint64(0), rng.Uint64()} {
				if got, want := m.Apply(k, cw), r.apply(k, cw); got != want {
					t.Fatalf("%s: Apply(%+v, %#x) = %#x, reference %#x", what, k, cw, got, want)
				}
			}
		}
	}
}

// oracleGeoms covers the paper's SECDED and DECTED ways plus an odd
// geometry whose words reach both ends of the 1..64-bit range.
var oracleGeoms = []WayGeometry{
	paperGeom(39, 33),
	paperGeom(45, 39),
	{Lines: 3, WordsPerLine: 5, DataWordBits: 64, TagWordBits: 1},
}

// sizedPf is the proposed ULE way's Pf as the design methodology sizes
// it for scenario A.
func sizedPf(t *testing.T) float64 {
	res, err := yield.Run(yield.PaperInput(yield.ScenarioA))
	if err != nil {
		t.Fatal(err)
	}
	return res.ProposedPf
}

// mapStats are the observables of one map the samplers are compared
// on: total faults, the most in one word, faults in tag words and
// cells stuck at 1.
type mapStats [4]int

var mapStatNames = [4]string{"faults", "max per word", "tag-word faults", "stuck-at-1 cells"}

func statsOf(m *WayFaults) mapStats {
	g := m.Geometry()
	s := mapStats{m.Count(), m.MaxPerWord()}
	for line := 0; line < g.Lines; line++ {
		for word := 0; word <= g.WordsPerLine; word++ {
			k := WordKey{Line: line, Word: word}
			if word == g.TagWordIndex() {
				s[2] += m.FaultsIn(k)
			}
			s[3] += bits.OnesCount64(m.Apply(k, 0))
		}
	}
	return s
}

func (r *refMap) stats() mapStats {
	s := mapStats{r.count, r.maxPerWord()}
	for k, fs := range r.words {
		if k.Word == r.geom.WordsPerLine {
			s[2] += len(fs)
		}
		for _, f := range fs {
			s[3] += int(f.Stuck)
		}
	}
	return s
}

// chiSquareHomogeneity tests whether two equal-size samples of a
// discrete statistic come from one distribution. Values are pooled in
// ascending order into bins holding at least 10 observations of both
// samples together (an expected count of 5 per sample); it returns the
// statistic Σ (a−b)²/(a+b) and its upper-tail p-value under χ² with
// bins−1 degrees of freedom (1 when there is a single bin).
func chiSquareHomogeneity(a, b []int) (stat, p float64) {
	hist := map[int][2]int{}
	for j, xs := range [2][]int{a, b} {
		for _, v := range xs {
			c := hist[v]
			c[j]++
			hist[v] = c
		}
	}
	var vals []int
	for v := range hist {
		vals = append(vals, v)
	}
	slices.Sort(vals)
	var bins [][2]int
	var cur [2]int
	for _, v := range vals {
		cur[0] += hist[v][0]
		cur[1] += hist[v][1]
		if cur[0]+cur[1] >= 10 {
			bins, cur = append(bins, cur), [2]int{}
		}
	}
	if len(bins) == 0 {
		return 0, 1
	}
	bins[len(bins)-1][0] += cur[0]
	bins[len(bins)-1][1] += cur[1]
	for _, c := range bins {
		d := float64(c[0] - c[1])
		stat += d * d / float64(c[0]+c[1])
	}
	return stat, upperGammaQ(float64(max(len(bins)-1, 1))/2, stat/2)
}

// upperGammaQ is the regularized upper incomplete gamma function
// Q(a, x), so that Q(df/2, χ²/2) is the χ² upper-tail p-value: the
// series for P below x = a+1 and Lentz's continued fraction above it
// (Numerical Recipes, 3rd ed., §6.2).
func upperGammaQ(a, x float64) float64 {
	if x <= 0 {
		return 1
	}
	lg, _ := math.Lgamma(a)
	front := math.Exp(a*math.Log(x) - x - lg)
	if x < a+1 {
		sum, term := 1/a, 1/a
		for n := 1.0; math.Abs(term) > 1e-15*math.Abs(sum); n++ {
			term *= x / (a + n)
			sum += term
		}
		return 1 - front*sum
	}
	const tiny = 1e-300
	b := x + 1 - a
	c, d := 1/tiny, 1/b
	h := d
	for i := 1.0; i < 1000; i++ {
		an := -i * (i - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		h *= d * c
		if math.Abs(d*c-1) < 1e-15 {
			break
		}
	}
	return front * h
}

func TestChiSquareHomogeneity(t *testing.T) {
	// Q(1/2, x/2) is the χ²(1) tail: 3.841 at 5 %, 10.83 at 0.1 %.
	for _, c := range []struct{ df, x, want float64 }{{1, 3.841, 0.05}, {1, 10.83, 0.001}, {10, 29.59, 0.001}, {4, 2, 0.7358}} {
		if got := upperGammaQ(c.df/2, c.x/2); math.Abs(got-c.want) > 1e-3*max(c.want, 0.01) {
			t.Errorf("χ²(%g) tail at %g = %.5f, want %.4f", c.df, c.x, got, c.want)
		}
	}
	same := []int{0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9}
	if _, p := chiSquareHomogeneity(same, same); p != 1 {
		t.Errorf("identical samples: p %g, want 1", p)
	}
	lo, hi := make([]int, 1000), make([]int, 1000)
	for i := range lo {
		lo[i], hi[i] = i%10, i%10+1
	}
	if _, p := chiSquareHomogeneity(lo, hi); p > 1e-6 {
		t.Errorf("samples shifted by one: p %g, want ≈ 0", p)
	}
}

// TestGenerateMatchesReference holds the skipping sampler to the
// per-cell reference in distribution: 10k maps from each, at multiples
// of the sized Pf and at both ends of the range, compared on every
// mapStats observable by a χ² homogeneity test at α = 0.001 with fixed
// seeds. The two draw different numbers from one seed, so the
// comparison is between samples, not map for map. The sampler side
// runs as a campaign worker does: one map redrawn per trial from a
// splitMix64 reseeded by sim.SubSeed.
func TestGenerateMatchesReference(t *testing.T) {
	const maps, alpha = 10_000, 1e-3
	pf := sizedPf(t)
	type tc struct {
		g  WayGeometry
		pf float64
	}
	// At Pf 0.5 the odd geometry and one whose tag word is wider than
	// its data words put the tag boundary at both kinds of offset.
	wideTag := WayGeometry{Lines: 4, WordsPerLine: 3, DataWordBits: 7, TagWordBits: 40}
	cases := []tc{{oracleGeoms[0], 1e-9}, {oracleGeoms[2], 0.5}, {wideTag, 0.5}}
	for _, scale := range []float64{0.3, 1, 3, 10} {
		cases = append(cases, tc{oracleGeoms[0], scale * pf})
	}
	for i, c := range cases {
		c, seed := c, int64(100+i)
		t.Run(fmt.Sprintf("%+v/pf=%g", c.g, c.pf), func(t *testing.T) {
			t.Parallel()
			var got, want [4][]int
			m, rng, refRng := Empty(c.g), rand.New(new(splitMix64)), rand.New(rand.NewSource(seed))
			for i := 0; i < maps; i++ {
				rng.Seed(sim.SubSeed(seed, "faults.oracle", i))
				m.redraw(c.pf, rng)
				gs, ws := statsOf(m), refGenerate(c.g, c.pf, refRng).stats()
				for j := range gs {
					got[j], want[j] = append(got[j], gs[j]), append(want[j], ws[j])
				}
			}
			for j, name := range mapStatNames {
				if stat, p := chiSquareHomogeneity(got[j], want[j]); p < alpha {
					t.Errorf("%s: χ² %.1f, p %.2g < %g: Generate and the per-cell reference differ in distribution",
						name, stat, p, alpha)
				}
			}
		})
	}
}

// TestSplitMix64KnownAnswers checks the campaign's source against the
// published SplitMix64 outputs for seed 1234567.
func TestSplitMix64KnownAnswers(t *testing.T) {
	s := splitMix64(1234567)
	for i, want := range []uint64{6457827717110365317, 3203168211198807973, 9817491932198370423, 4593380528125082431, 16408922859458223821} {
		if got := s.Uint64(); got != want {
			t.Fatalf("output %d: %d, want %d", i, got, want)
		}
	}
	s.Seed(1234567)
	if got := s.Int63(); got != int64(6457827717110365317>>1) {
		t.Fatalf("Int63 after Seed: %d, want the first output shifted right once", got)
	}
}

// TestGenerateAtExtremePfs pins the ends of the gap arithmetic: at
// Pf 1e-300 the gap overflows every int and no fault may be drawn (nor
// a panic raised); at 1−1e-12 every cell is faulty, each once.
func TestGenerateAtExtremePfs(t *testing.T) {
	for _, g := range oracleGeoms {
		for seed := int64(1); seed <= 50; seed++ {
			m, err := Generate(g, 1e-300, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			if m.Count() != 0 {
				t.Fatalf("%+v seed %d: %d faults at Pf 1e-300", g, seed, m.Count())
			}
			if m, _ = Generate(g, 1-1e-12, rand.New(rand.NewSource(seed))); m.Count() != g.TotalBits() || m.MaxPerWord() != max(g.DataWordBits, g.TagWordBits) {
				t.Fatalf("%+v seed %d: %d faults, at most %d in a word, at Pf 1−1e-12; want each of %d cells once",
					g, seed, m.Count(), m.MaxPerWord(), g.TotalBits())
			}
		}
	}
}

func TestGenerateAtPfOneHitsEveryCellOnce(t *testing.T) {
	for _, g := range oracleGeoms {
		m, err := Generate(g, 1, rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatal(err)
		}
		if m.Count() != g.TotalBits() {
			t.Fatalf("%+v: Count %d, want every one of %d cells", g, m.Count(), g.TotalBits())
		}
		for line := 0; line < g.Lines; line++ {
			for word := 0; word <= g.WordsPerLine; word++ {
				k := WordKey{Line: line, Word: word}
				bits := g.DataWordBits
				if word == g.TagWordIndex() {
					bits = g.TagWordBits
				}
				// Every in-word bit reads stuck (the same from 0 and from
				// all-ones), no bit beyond the word is touched, and the
				// count equals the width: each cell once.
				width := ^uint64(0) >> uint(64-bits)
				lo, hi := m.Apply(k, 0), m.Apply(k, ^uint64(0))
				if lo != hi&width || hi&^width != ^width || m.FaultsIn(k) != bits {
					t.Fatalf("%+v word %+v: Apply(0) %#x, Apply(^0) %#x, %d faults, want all %d bits stuck once",
						g, k, lo, hi, m.FaultsIn(k), bits)
				}
			}
		}
	}
}

func TestInjectMatchesReference(t *testing.T) {
	// Directed injections with repeats: a bit hit twice takes the last
	// stuck value and counts twice, as in the reference.
	g := paperGeom(39, 33)
	rng := rand.New(rand.NewSource(17))
	for round := 0; round < 20; round++ {
		m, r := Empty(g), refEmpty(g)
		for i := 0; i < 40; i++ {
			k := WordKey{Line: rng.Intn(2), Word: rng.Intn(g.WordsPerLine + 1)}
			bits := g.DataWordBits
			if k.Word == g.TagWordIndex() {
				bits = g.TagWordBits
			}
			f := BitFault{Pos: rng.Intn(min(bits, 4)), Stuck: uint64(rng.Intn(2))}
			m.Inject(k, f)
			r.inject(k, f)
		}
		sameAsRef(t, fmt.Sprintf("round %d", round), m, r, rng)
	}
}

func TestCampaignMatchesNaiveTrialLoop(t *testing.T) {
	for _, g := range oracleGeoms[:2] {
		for _, pf := range []float64{1e-4, 3e-3} {
			for _, trials := range []int{3, 61} {
				c := Campaign{Geometry: g, Pf: pf, Trials: trials, Tolerable: 1}
				want := 0
				for i := 0; i < trials; i++ {
					src := splitMix64(sim.SubSeed(9, "faults.campaign", i))
					m, err := Generate(g, pf, rand.New(&src))
					if err != nil {
						t.Fatal(err)
					}
					if m.MaxPerWord() <= c.Tolerable {
						want++
					}
				}
				for _, workers := range []int{1, 2, 8} {
					got, err := c.Run(9, workers)
					if err != nil {
						t.Fatal(err)
					}
					if got.Usable != want || got.Trials != trials {
						t.Errorf("%+v workers %d: %+v, naive loop %d usable of %d", c, workers, got, want, trials)
					}
				}
			}
		}
	}
}

func TestGeometryRejectsWordsWiderThan64(t *testing.T) {
	for _, g := range []WayGeometry{paperGeom(65, 33), paperGeom(39, 65)} {
		if g.Validate() == nil {
			t.Errorf("%+v: Validate accepted a word a uint64 cannot hold", g)
		}
		if _, err := Generate(g, 0.1, rand.New(rand.NewSource(1))); err == nil {
			t.Errorf("%+v: Generate accepted it", g)
		}
		if _, err := (Campaign{Geometry: g, Pf: 0.1, Trials: 4}).Run(1, 2); err == nil {
			t.Errorf("%+v: Campaign.Run accepted it", g)
		}
	}
	if _, err := (Campaign{Geometry: paperGeom(39, 33), Pf: 2, Trials: 4}).Run(1, 2); err == nil {
		t.Error("Campaign.Run accepted Pf 2")
	}
}

func TestInjectOutsideGeometryPanics(t *testing.T) {
	g := paperGeom(39, 33) // 8 data words and a tag word per line
	for _, c := range []struct {
		k WordKey
		f BitFault
	}{
		{WordKey{Line: -1, Word: 0}, BitFault{Pos: 0}},
		{WordKey{Line: 32, Word: 0}, BitFault{Pos: 0}},
		{WordKey{Line: 0, Word: -1}, BitFault{Pos: 0}},
		{WordKey{Line: 0, Word: 9}, BitFault{Pos: 0}}, // would alias line 1's word 0
		{WordKey{Line: 0, Word: 0}, BitFault{Pos: -1}},
		{WordKey{Line: 0, Word: 0}, BitFault{Pos: 39}},
		{WordKey{Line: 0, Word: 8}, BitFault{Pos: 33}}, // the tag word is narrower
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "outside geometry") {
					t.Errorf("Inject(%+v, %+v): recovered %q, want an outside-geometry panic", c.k, c.f, msg)
				}
			}()
			Empty(g).Inject(c.k, c.f)
		}()
	}
}

func TestCampaignAllocatesPerWorkerNotPerTrial(t *testing.T) {
	c := Campaign{Geometry: paperGeom(39, 33), Pf: sizedPf(t), Trials: 2000, Tolerable: 1}
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := c.Run(1, 2); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("2000-trial campaign at 2 workers: %.0f allocations", allocs)
	if allocs >= 100 {
		t.Errorf("2000-trial campaign made %.0f allocations, want < 100 (one RNG and map per worker)", allocs)
	}
}

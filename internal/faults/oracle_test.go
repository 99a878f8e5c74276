package faults

import (
	"fmt"
	"math/rand"
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

func oraclePfs(t *testing.T) []float64 {
	res, err := yield.Run(yield.PaperInput(yield.ScenarioA))
	if err != nil {
		t.Fatal(err)
	}
	return []float64{0, 1e-9, res.ProposedPf, 10 * res.ProposedPf, 0.5, 1}
}

func TestGenerateMatchesReference(t *testing.T) {
	for _, g := range oracleGeoms {
		for _, pf := range oraclePfs(t) {
			for seed := int64(1); seed <= 4; seed++ {
				what := fmt.Sprintf("geom %+v pf %g seed %d", g, pf, seed)
				m, err := Generate(g, pf, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatal(err)
				}
				sameAsRef(t, what, m, refGenerate(g, pf, rand.New(rand.NewSource(seed))), rand.New(rand.NewSource(seed)))
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
					r := refGenerate(g, pf, rand.New(rand.NewSource(sim.SubSeed(9, "faults.campaign", i))))
					if r.maxPerWord() <= c.Tolerable {
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
	res, err := yield.Run(yield.PaperInput(yield.ScenarioA))
	if err != nil {
		t.Fatal(err)
	}
	c := Campaign{Geometry: paperGeom(39, 33), Pf: res.ProposedPf, Trials: 2000, Tolerable: 1}
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

// Package faults models the hard (manufacturing / low-voltage) faults and
// soft errors the cache architecture must survive. Hard faults are
// stuck-at bits drawn per-cell with the failure probability supplied by
// the bitcell model; soft errors are transient single-bit flips. The
// package supports both the Monte-Carlo yield campaigns (experiment E7)
// and the functional fault-injection example.
package faults

import (
	"fmt"
	"math/rand"
)

// BitFault is one stuck-at bit within a stored word.
type BitFault struct {
	Pos   int    // bit position within the codeword
	Stuck uint64 // the value the cell is stuck at (0 or 1)
}

// WordKey addresses one protected word inside a way: line number plus
// word index, where word index len(dataWords) (== WordsPerLine) denotes
// the line's tag word.
type WordKey struct {
	Line int
	Word int
}

// WayGeometry is the fault-relevant geometry of one way.
type WayGeometry struct {
	Lines        int
	WordsPerLine int
	DataWordBits int // total codeword bits per data word (payload+check)
	TagWordBits  int // total codeword bits per tag word
}

// Validate reports whether the geometry is usable.
func (g WayGeometry) Validate() error {
	if g.Lines <= 0 || g.WordsPerLine <= 0 || g.DataWordBits <= 0 || g.TagWordBits <= 0 {
		return fmt.Errorf("faults: invalid geometry %+v", g)
	}
	return nil
}

// TagWordIndex returns the Word value that addresses a line's tag.
func (g WayGeometry) TagWordIndex() int { return g.WordsPerLine }

// TotalBits returns the number of cells in the way.
func (g WayGeometry) TotalBits() int {
	return g.Lines * (g.WordsPerLine*g.DataWordBits + g.TagWordBits)
}

// WayFaults is a sparse stuck-at fault map over one way.
type WayFaults struct {
	geom  WayGeometry
	words map[WordKey][]BitFault
	count int
}

// Generate draws a fault map with independent per-bit probability pf,
// using the supplied RNG (deterministic campaigns seed it explicitly).
// Stuck values are equiprobable 0/1.
func Generate(g WayGeometry, pf float64, rng *rand.Rand) (*WayFaults, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if pf < 0 || pf > 1 {
		return nil, fmt.Errorf("faults: Pf %g outside [0,1]", pf)
	}
	w := &WayFaults{geom: g, words: make(map[WordKey][]BitFault)}
	for line := 0; line < g.Lines; line++ {
		for word := 0; word <= g.WordsPerLine; word++ {
			bits := g.DataWordBits
			if word == g.TagWordIndex() {
				bits = g.TagWordBits
			}
			for b := 0; b < bits; b++ {
				if rng.Float64() < pf {
					k := WordKey{Line: line, Word: word}
					w.words[k] = append(w.words[k], BitFault{Pos: b, Stuck: uint64(rng.Intn(2))})
					w.count++
				}
			}
		}
	}
	return w, nil
}

// Empty returns a fault-free map for the geometry.
func Empty(g WayGeometry) *WayFaults {
	return &WayFaults{geom: g, words: make(map[WordKey][]BitFault)}
}

// Inject adds one explicit stuck-at fault (for directed tests and the
// fault-injection example).
func (w *WayFaults) Inject(k WordKey, f BitFault) {
	w.words[k] = append(w.words[k], f)
	w.count++
}

// Apply forces the stuck bits of the addressed word onto a codeword,
// modelling what the array returns on a read after the word was written.
func (w *WayFaults) Apply(k WordKey, codeword uint64) uint64 {
	for _, f := range w.words[k] {
		mask := uint64(1) << uint(f.Pos)
		codeword = codeword&^mask | f.Stuck<<uint(f.Pos)
	}
	return codeword
}

// Count returns the total number of stuck-at cells in the way.
func (w *WayFaults) Count() int { return w.count }

// FaultsIn returns the number of stuck-at cells in one word.
func (w *WayFaults) FaultsIn(k WordKey) int { return len(w.words[k]) }

// MaxPerWord returns the largest number of faults found in any single
// word — the quantity yield analysis cares about (a word with more hard
// faults than the code can dedicate to them is unusable).
func (w *WayFaults) MaxPerWord() int {
	max := 0
	for _, fs := range w.words {
		if len(fs) > max {
			max = len(fs)
		}
	}
	return max
}

// Usable reports whether every word has at most `tolerable` hard faults —
// the acceptance criterion of the paper's Eq. (1)/(2).
func (w *WayFaults) Usable(tolerable int) bool { return w.MaxPerWord() <= tolerable }

// Geometry returns the way geometry the map was generated for.
func (w *WayFaults) Geometry() WayGeometry { return w.geom }

// FlipRandomBit injects a transient soft error into the given word of a
// codeword (not the map): it returns the codeword with one uniformly
// chosen bit of the low `bits` flipped.
func FlipRandomBit(codeword uint64, bits int, rng *rand.Rand) uint64 {
	return codeword ^ 1<<uint(rng.Intn(bits))
}

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
	"slices"
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

// Validate reports whether the geometry is usable (words of 1..64 bits).
func (g WayGeometry) Validate() error {
	if min(g.Lines, g.WordsPerLine, g.DataWordBits, g.TagWordBits) <= 0 || max(g.DataWordBits, g.TagWordBits) > 64 {
		return fmt.Errorf("faults: invalid geometry %+v (word widths must lie in 1..64)", g)
	}
	return nil
}

// TagWordIndex returns the Word value that addresses a line's tag.
func (g WayGeometry) TagWordIndex() int { return g.WordsPerLine }

// TotalBits returns the number of cells in the way.
func (g WayGeometry) TotalBits() int {
	return g.Lines * (g.WordsPerLine*g.DataWordBits + g.TagWordBits)
}

// WayFaults is a dense stuck-at fault map over one way. Its flat
// per-word slices are indexed line*(WordsPerLine+1)+word, the tag last.
type WayFaults struct {
	geom      WayGeometry
	mask, val []uint64 // the word's stuck bits and the values they are stuck at
	n         []int    // the word's fault count
	count     int
}

// Generate draws a fault map with independent per-bit probability pf,
// using the supplied RNG (deterministic campaigns seed it explicitly).
// Stuck values are equiprobable 0/1.
func Generate(g WayGeometry, pf float64, rng *rand.Rand) (*WayFaults, error) {
	if err := validate(g, pf); err != nil {
		return nil, err
	}
	w := Empty(g)
	w.redraw(pf, rng)
	return w, nil
}

func validate(g WayGeometry, pf float64) error {
	if pf < 0 || pf > 1 {
		return fmt.Errorf("faults: Pf %g outside [0,1]", pf)
	}
	return g.Validate()
}

// redraw clears the map and draws every cell in (line, word, bit) order.
func (w *WayFaults) redraw(pf float64, rng *rand.Rand) {
	clear(w.mask)
	clear(w.val)
	clear(w.n)
	w.count = 0
	g := w.geom
	for line := 0; line < g.Lines; line++ {
		for word := 0; word <= g.WordsPerLine; word++ {
			bits := g.DataWordBits
			if word == g.TagWordIndex() {
				bits = g.TagWordBits
			}
			for b := 0; b < bits; b++ {
				if rng.Float64() < pf {
					w.Inject(WordKey{Line: line, Word: word}, BitFault{Pos: b, Stuck: uint64(rng.Intn(2))})
				}
			}
		}
	}
}

// Empty returns a fault-free map for the geometry, which must be valid.
func Empty(g WayGeometry) *WayFaults {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	n := g.Lines * (g.WordsPerLine + 1)
	return &WayFaults{geom: g, mask: make([]uint64, n), val: make([]uint64, n), n: make([]int, n)}
}

// Inject adds one explicit stuck-at fault (for directed tests and the
// fault-injection example); a repeat on one bit overrides its stuck
// value and counts again. It panics outside the geometry.
func (w *WayFaults) Inject(k WordKey, f BitFault) {
	bits := w.geom.DataWordBits
	if k.Word == w.geom.TagWordIndex() {
		bits = w.geom.TagWordBits
	}
	if k.Line < 0 || k.Line >= w.geom.Lines || k.Word < 0 || k.Word > w.geom.WordsPerLine || f.Pos < 0 || f.Pos >= bits {
		panic(fmt.Sprintf("faults: fault %+v in word %+v outside geometry %+v", f, k, w.geom))
	}
	i, bit := w.index(k), uint64(1)<<uint(f.Pos)
	w.mask[i] |= bit
	w.val[i] = w.val[i]&^bit | f.Stuck<<uint(f.Pos)
	w.n[i]++
	w.count++
}

func (w *WayFaults) index(k WordKey) int { return k.Line*(w.geom.WordsPerLine+1) + k.Word }

// Apply forces the stuck bits of the addressed word onto a codeword,
// modelling what the array returns on a read after the word was written.
func (w *WayFaults) Apply(k WordKey, codeword uint64) uint64 {
	i := w.index(k)
	return codeword&^w.mask[i] | w.val[i]
}

// Count returns the total number of stuck-at cells in the way.
func (w *WayFaults) Count() int { return w.count }

// FaultsIn returns the number of stuck-at cells in one word.
func (w *WayFaults) FaultsIn(k WordKey) int { return w.n[w.index(k)] }

// MaxPerWord returns the largest number of faults found in any single
// word — the quantity yield analysis cares about (a word with more hard
// faults than the code can dedicate to them is unusable).
func (w *WayFaults) MaxPerWord() int { return slices.Max(w.n) }

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

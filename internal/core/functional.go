package core

import (
	"fmt"
	"math/bits"

	"edcache/internal/cache"
	"edcache/internal/ecc"
	"edcache/internal/faults"
)

// FunctionalCache is a bit-accurate model of the ULE-mode cache: a
// single-way (direct-mapped) cache whose data and tag arrays hold real
// EDC codewords in a ProtectedWay, over a backing memory. Every load
// returns data that travelled through the encoder, the stuck-at fault
// map and the decoder — the executable counterpart of the performance
// model, used by the integration tests to prove the architecture's
// correctness claim (software never observes a hard fault) rather than
// assume it. Its line bookkeeping is the whole of its cache state: a
// hit is a valid line holding the address's memory line, and a miss
// writes the victim back if it was written since its fill.
type FunctionalCache struct {
	way *ProtectedWay
	mem map[uint32]uint32
	cfg cache.Config
	wpl int

	shift, tagShift int // log2 of LineBytes and of LineBytes*Sets (powers of two)
	// lineAddr[set] is the memory line that cache line set holds, valid
	// iff lineUsed[set]; dirty[set] marks it stored to since its fill.
	lineAddr []uint32
	lineUsed []bool
	dirty    []bool

	// Uncorrectable counts reads whose decode reported Detected; the
	// architecture would raise a machine-check — the integration tests
	// require it to stay zero at yield-accepted fault maps.
	Uncorrectable int
	// CorrectedReads counts transparently repaired reads.
	CorrectedReads int
}

// NewFunctionalCache builds the functional ULE cache: `lines` sets of
// one way with 32-bit words, protected by the given code, over the given
// fault map (nil for fault-free).
func NewFunctionalCache(lines, wordsPerLine int, kind ecc.Kind, fmap *faults.WayFaults) (*FunctionalCache, error) {
	cfg := cache.Config{Sets: lines, Ways: 1, LineBytes: wordsPerLine * 4}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	way, err := NewProtectedWay(lines, wordsPerLine, kind, 32, 26, fmap)
	if err != nil {
		return nil, err
	}
	return &FunctionalCache{
		way:      way,
		mem:      make(map[uint32]uint32),
		cfg:      cfg,
		wpl:      wordsPerLine,
		shift:    bits.TrailingZeros(uint(cfg.LineBytes)),
		tagShift: bits.TrailingZeros(uint(cfg.LineBytes * lines)),
		lineAddr: make([]uint32, lines),
		lineUsed: make([]bool, lines),
		dirty:    make([]bool, lines),
	}, nil
}

func (f *FunctionalCache) locate(addr uint32) (set, word int) {
	return int(addr>>f.shift) & (f.cfg.Sets - 1), int(addr&uint32(f.cfg.LineBytes-1)) >> 2
}

// access locates addr's word, filling its line on a miss and marking
// it dirty on a write, and reports whether it hit.
func (f *FunctionalCache) access(addr uint32, write bool) (set, word int, hit bool) {
	set, word = f.locate(addr)
	lineBase := addr &^ uint32(f.cfg.LineBytes-1)
	hit = f.lineUsed[set] && f.lineAddr[set] == lineBase
	if !hit {
		f.fill(set, lineBase)
	}
	if write {
		f.dirty[set] = true
	}
	return set, word, hit
}

// Load returns the 32-bit word at addr (word-aligned), filling the line
// on a miss.
func (f *FunctionalCache) Load(addr uint32) (uint32, bool) {
	set, word, hit := f.access(addr, false)
	v, dres := f.way.ReadData(set, word)
	f.note(dres)
	return uint32(v), hit
}

// Store writes the 32-bit word at addr (word-aligned), write-allocating
// on a miss.
func (f *FunctionalCache) Store(addr uint32, value uint32) bool {
	set, word, hit := f.access(addr, true)
	f.way.WriteData(set, word, uint64(value))
	return hit
}

// fill loads a line from memory through the encoder, writing back the
// victim first if it was dirty.
func (f *FunctionalCache) fill(set int, lineBase uint32) {
	if f.lineUsed[set] && f.dirty[set] {
		old := f.lineAddr[set]
		for w := 0; w < f.wpl; w++ {
			v, dres := f.way.ReadData(set, w)
			f.note(dres)
			f.mem[old+uint32(w*4)] = uint32(v)
		}
	}
	for w := 0; w < f.wpl; w++ {
		f.way.WriteData(set, w, uint64(f.mem[lineBase+uint32(w*4)]))
	}
	tag := uint64(lineBase) >> f.tagShift
	f.way.WriteTag(set, tag&((1<<26)-1))
	f.lineAddr[set] = lineBase
	f.lineUsed[set] = true
	f.dirty[set] = false
}

func (f *FunctionalCache) note(r ecc.Result) {
	switch r.Status {
	case ecc.Detected:
		f.Uncorrectable++
	case ecc.Corrected:
		f.CorrectedReads++
	}
}

// MemWord returns the backing-memory copy of a word (test helper).
func (f *FunctionalCache) MemWord(addr uint32) uint32 { return f.mem[addr&^3] }

// Flush writes every dirty line back to memory through the decoder and
// invalidates the cache.
func (f *FunctionalCache) Flush() error {
	for set := 0; set < f.cfg.Sets; set++ {
		if !f.lineUsed[set] || !f.dirty[set] {
			continue
		}
		base := f.lineAddr[set]
		for w := 0; w < f.wpl; w++ {
			v, dres := f.way.ReadData(set, w)
			f.note(dres)
			f.mem[base+uint32(w*4)] = uint32(v)
		}
	}
	clear(f.lineUsed)
	clear(f.dirty)
	if f.Uncorrectable > 0 {
		return fmt.Errorf("core: %d uncorrectable words encountered", f.Uncorrectable)
	}
	return nil
}

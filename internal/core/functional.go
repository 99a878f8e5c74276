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
// assume it.
type FunctionalCache struct {
	sim *cache.Cache
	way *ProtectedWay
	mem map[uint32]uint32
	cfg cache.Config
	wpl int

	shift, tagShift int // log2 of LineBytes and of LineBytes*Sets (powers of two)
	// lineAddr[line] tracks which memory line each cache line holds so
	// evictions can write back decoded contents.
	lineAddr []uint32
	lineUsed []bool

	// Uncorrectable counts reads whose decode reported Detected; the
	// architecture would raise a machine-check — the integration tests
	// require it to stay zero at yield-accepted fault maps.
	Uncorrectable int
	// CorrectedReads counts transparently repaired reads.
	CorrectedReads int

	// res is accessBatch's Result scratch, sized to the largest chunk.
	res []cache.Result
}

// NewFunctionalCache builds the functional ULE cache: `lines` sets of
// one way with 32-bit words, protected by the given code, over the given
// fault map (nil for fault-free).
func NewFunctionalCache(lines, wordsPerLine int, kind ecc.Kind, fmap *faults.WayFaults) (*FunctionalCache, error) {
	cfg := cache.Config{Sets: lines, Ways: 1, LineBytes: wordsPerLine * 4}
	sim, err := cache.New(cfg)
	if err != nil {
		return nil, err
	}
	way, err := NewProtectedWay(lines, wordsPerLine, kind, 32, 26, fmap)
	if err != nil {
		return nil, err
	}
	return &FunctionalCache{
		sim:      sim,
		way:      way,
		mem:      make(map[uint32]uint32),
		cfg:      cfg,
		wpl:      wordsPerLine,
		shift:    bits.TrailingZeros(uint(cfg.LineBytes)),
		tagShift: bits.TrailingZeros(uint(cfg.LineBytes * lines)),
		lineAddr: make([]uint32, lines),
		lineUsed: make([]bool, lines),
	}, nil
}

func (f *FunctionalCache) locate(addr uint32) (set, word int) {
	return int(addr>>f.shift) & (f.cfg.Sets - 1), int(addr&uint32(f.cfg.LineBytes-1)) >> 2
}

// Load returns the 32-bit word at addr (word-aligned), filling the line
// on a miss.
func (f *FunctionalCache) Load(addr uint32) (uint32, bool) {
	res := f.sim.Access(addr, false)
	set, word := f.locate(addr)
	if !res.Hit {
		f.fill(set, addr, res)
	}
	v, dres := f.way.ReadData(set, word)
	f.note(dres)
	return uint32(v), res.Hit
}

// Store writes the 32-bit word at addr (word-aligned), write-allocating
// on a miss.
func (f *FunctionalCache) Store(addr uint32, value uint32) bool {
	res := f.sim.Access(addr, true)
	set, word := f.locate(addr)
	if !res.Hit {
		f.fill(set, addr, res)
	}
	f.way.WriteData(set, word, uint64(value))
	return res.Hit
}

// accessBatch replays ops in order on the batched replay path: the
// whole chunk drives the timing simulator as one cache.AccessBatch
// call, then the protected-array work — fills, encoded stores, decoded
// loads — consumes the Result slice per op. Stores write value(addr)
// (the replay pattern ReplayFunctional uses; trace records carry no
// data). Semantically this is exactly Load/Store per op: the timing
// simulator sees the identical access sequence, and the protected
// state advances in the same order because nothing between the ops
// touches it.
func (f *FunctionalCache) accessBatch(ops []cache.Op, value func(addr uint32) uint32, miss []bool) {
	if cap(f.res) < len(ops) {
		f.res = make([]cache.Result, len(ops))
	}
	res := f.res[:len(ops)]
	f.sim.AccessBatch(ops, res)
	for i, op := range ops {
		set, word := f.locate(op.Addr)
		if !res[i].Hit {
			f.fill(set, op.Addr, res[i])
		}
		if op.Write {
			f.way.WriteData(set, word, uint64(value(op.Addr)))
		} else {
			_, dres := f.way.ReadData(set, word)
			f.note(dres)
		}
		miss[i] = !res[i].Hit
	}
}

// fill loads a line from memory through the encoder, writing back the
// victim first if it was dirty.
func (f *FunctionalCache) fill(set int, addr uint32, res cache.Result) {
	lineBase := f.sim.LineAddr(addr &^ 3)
	if res.Writeback && f.lineUsed[set] {
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

// Flush writes every dirty line back to memory through the decoder.
func (f *FunctionalCache) Flush() error {
	for set := 0; set < f.cfg.Sets; set++ {
		if !f.lineUsed[set] {
			continue
		}
		base := f.lineAddr[set]
		for w := 0; w < f.wpl; w++ {
			v, dres := f.way.ReadData(set, w)
			f.note(dres)
			f.mem[base+uint32(w*4)] = uint32(v)
		}
	}
	f.sim.Flush()
	for i := range f.lineUsed {
		f.lineUsed[i] = false
	}
	if f.Uncorrectable > 0 {
		return fmt.Errorf("core: %d uncorrectable words encountered", f.Uncorrectable)
	}
	return nil
}

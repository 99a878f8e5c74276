package core

import (
	"fmt"
	"math/rand"

	"edcache/internal/ecc"
	"edcache/internal/faults"
)

// ProtectedWay is a functional (bit-accurate) model of one ULE way's
// storage: every data and tag word is stored as a real codeword of the
// configured EDC code, hard faults from a fault map corrupt it on every
// read, and soft errors can be injected into the stored state. It backs
// the fault-injection example and the reliability-equivalence experiment
// (E7), complementing the analytic yield math with an executable check
// that the architecture really returns correct data on faulty silicon.
type ProtectedWay struct {
	geom      faults.WayGeometry
	dataCodec ecc.Codec
	tagCodec  ecc.Codec
	fmap      *faults.WayFaults
	store     []uint64 // codewords at line*(WordsPerLine+1)+word, the tag last
}

// NewProtectedWay builds a way with the given geometry, code family and
// fault map. The fault map's word widths must match the codec geometry.
func NewProtectedWay(lines, wordsPerLine int, kind ecc.Kind, dataBits, tagBits int, fmap *faults.WayFaults) (*ProtectedWay, error) {
	dataCodec, err := ecc.New(kind, dataBits)
	if err != nil {
		return nil, err
	}
	tagCodec, err := ecc.New(kind, tagBits)
	if err != nil {
		return nil, err
	}
	geom := faults.WayGeometry{
		Lines:        lines,
		WordsPerLine: wordsPerLine,
		DataWordBits: ecc.TotalBits(dataCodec),
		TagWordBits:  ecc.TotalBits(tagCodec),
	}
	if fmap == nil {
		fmap = faults.Empty(geom)
	}
	fg := fmap.Geometry()
	if fg != geom {
		return nil, fmt.Errorf("core: fault map geometry %+v does not match way geometry %+v", fg, geom)
	}
	return &ProtectedWay{
		geom:      geom,
		dataCodec: dataCodec,
		tagCodec:  tagCodec,
		fmap:      fmap,
		store:     make([]uint64, lines*(wordsPerLine+1)),
	}, nil
}

// Geometry returns the way's physical geometry (codeword widths).
func (p *ProtectedWay) Geometry() faults.WayGeometry { return p.geom }

func (p *ProtectedWay) checkData(line, word int) {
	if line < 0 || line >= p.geom.Lines || word < 0 || word >= p.geom.WordsPerLine {
		panic(fmt.Sprintf("core: data word (%d,%d) out of range", line, word))
	}
}

// slot returns a word's index in store.
func (p *ProtectedWay) slot(line, word int) int { return line*(p.geom.WordsPerLine+1) + word }

// WriteData encodes and stores a data word.
func (p *ProtectedWay) WriteData(line, word int, value uint64) {
	p.checkData(line, word)
	p.store[p.slot(line, word)] = p.dataCodec.Encode(value & ecc.DataMask(p.dataCodec))
}

// ReadData reads a data word through the fault map and the decoder.
func (p *ProtectedWay) ReadData(line, word int) (uint64, ecc.Result) {
	p.checkData(line, word)
	k := faults.WordKey{Line: line, Word: word}
	return p.dataCodec.Decode(p.fmap.Apply(k, p.store[p.slot(line, word)]))
}

// WriteTag encodes and stores a line's tag word.
func (p *ProtectedWay) WriteTag(line int, value uint64) {
	if line < 0 || line >= p.geom.Lines {
		panic(fmt.Sprintf("core: tag line %d out of range", line))
	}
	p.store[p.slot(line, p.geom.TagWordIndex())] = p.tagCodec.Encode(value & ecc.DataMask(p.tagCodec))
}

// ReadTag reads a line's tag word through the fault map and decoder.
func (p *ProtectedWay) ReadTag(line int) (uint64, ecc.Result) {
	if line < 0 || line >= p.geom.Lines {
		panic(fmt.Sprintf("core: tag line %d out of range", line))
	}
	k := faults.WordKey{Line: line, Word: p.geom.TagWordIndex()}
	return p.tagCodec.Decode(p.fmap.Apply(k, p.store[p.slot(k.Line, k.Word)]))
}

// InjectSoftError flips one random stored bit of the given data word,
// modelling a particle strike between write and read.
func (p *ProtectedWay) InjectSoftError(line, word int, rng *rand.Rand) {
	p.checkData(line, word)
	i := p.slot(line, word)
	p.store[i] = faults.FlipRandomBit(p.store[i], ecc.TotalBits(p.dataCodec), rng)
}

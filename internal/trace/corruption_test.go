package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// The corruption-injection suite: every structural region of a v2.1
// container (header, chunk body, chunk CRC, end marker, trailer, index
// entries, index CRC, footer) is flipped — and the file truncated at
// every byte boundary — and every read path (streaming, slab loading
// from a reader and from a file, mmap) must fail with a wrapped
// sentinel naming the region: no panics, no silent success.

// corpusInsts is the fixed instruction sequence the corruption suite
// serialises: 10 phase-annotated records in chunks of 4, giving three
// chunks (4, 4, 2 records) with phase ranges 0..1, 1..2, 2..3.
func corpusInsts() []Inst {
	insts := make([]Inst, 10)
	for i := range insts {
		insts[i] = Inst{PC: uint32(0x1000 + 4*i), Phase: uint8(i / 3)}
		switch i % 3 {
		case 0:
			insts[i].IsLoad, insts[i].Addr, insts[i].UseDist = true, uint32(0x8000+64*i), uint8(i)
		case 1:
			insts[i].IsStore, insts[i].Addr = true, uint32(0x9000+64*i)
		case 2:
			insts[i].IsBranch, insts[i].Taken = true, i%2 == 0
		}
	}
	return insts
}

// v21Layout names the structural offsets of the suite's container so
// corruption cases can target regions by meaning, not magic numbers.
type v21Layout struct {
	data []byte

	chunk0    int // offset of chunk 0's count field
	chunk0Rec int // offset of chunk 0's first record
	chunk0CRC int // offset of chunk 0's CRC32C
	endMarker int // offset of the 4-byte zero end marker
	trailer   int // offset of the 8-byte record-count trailer
	index     int // offset of the first index entry
	indexCRC  int // offset of the index CRC32C
	footer    int // offset of the 16-byte footer
}

// buildV21 serialises corpusInsts as a checksummed, indexed, phased
// v2.1 container and derives its layout.
func buildV21(t *testing.T) v21Layout {
	t.Helper()
	data := writeV2(t, corpusInsts(), V2Options{ChunkRecords: 4, Phases: true, Checksums: true, Index: true})
	l := v21Layout{data: data, chunk0: v2HeaderBytes}
	l.chunk0Rec = l.chunk0 + 4
	frame := func(n int) int { return 4 + n*recordBytes + chunkCRCBytes }
	l.chunk0CRC = l.chunk0 + 4 + 4*recordBytes
	l.endMarker = v2HeaderBytes + frame(4) + frame(4) + frame(2)
	l.trailer = l.endMarker + 4
	l.index = l.trailer + 8
	l.indexCRC = l.index + 3*indexEntryBytes
	l.footer = l.indexCRC + chunkCRCBytes
	if want := l.footer + indexFooterBytes; want != len(data) {
		t.Fatalf("layout derives %d bytes, file has %d", want, len(data))
	}
	return l
}

// fixChunk0CRC recomputes chunk 0's CRC after a deliberate body edit,
// so the corruption under test is the edit itself, not the checksum.
func (l v21Layout) fixChunk0CRC(data []byte) {
	crc := crc32.Checksum(data[l.chunk0:l.chunk0CRC], castagnoli)
	binary.LittleEndian.PutUint32(data[l.chunk0CRC:], crc)
}

// fixIndexCRC recomputes the index CRC after a deliberate entry edit.
func (l v21Layout) fixIndexCRC(data []byte) {
	crc := crc32.Checksum(data[l.index:l.indexCRC], castagnoli)
	binary.LittleEndian.PutUint32(data[l.indexCRC:], crc)
}

// readPath is one way of consuming a trace file end to end.
type readPath struct {
	name string
	read func(t *testing.T, data []byte) error
}

// tempTrace writes data to a file for the path-based readers.
func tempTrace(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "corrupt.trace")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// readPaths is every consumer the suite drives over each corruption:
// the streaming reader, slab loading (from a reader, and from a file
// whose slab is sized by peeking the trailer), and the mmap arena.
var readPaths = []readPath{
	{"stream", func(t *testing.T, data []byte) error {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return err
		}
		readAll(t, r)
		return r.Err()
	}},
	{"load-arena", func(t *testing.T, data []byte) error {
		_, err := loadArena(bytes.NewReader(data), 0)
		return err
	}},
	{"load-arena-file", func(t *testing.T, data []byte) error {
		_, err := LoadArenaFile(tempTrace(t, data))
		return err
	}},
	{"map-arena", func(t *testing.T, data []byte) error {
		a, err := OpenMapArena(tempTrace(t, data))
		if err == nil {
			a.Close()
		}
		return err
	}},
}

func TestCorruptionInjection(t *testing.T) {
	l := buildV21(t)

	// Each case mutates one region of a fresh copy and names the
	// sentinels a reader may legitimately classify the damage as (a
	// flipped index entry may surface as an entry mismatch or as a CRC
	// mismatch, both naming the index).
	cases := []struct {
		name   string
		mutate func(data []byte)
		want   []error
	}{
		{"header-magic", func(d []byte) { d[0] ^= 0xFF }, []error{ErrHeader}},
		{"header-version", func(d []byte) { d[4] = 9 }, []error{ErrHeader}},
		{"header-unknown-flag", func(d []byte) { d[8] |= 0x10 }, []error{ErrHeader}},
		{"header-gzip-crc-combo", func(d []byte) { d[8] |= byte(v2FlagGzip) }, []error{ErrHeader}},
		{"header-chunk-cap-zero", func(d []byte) {
			binary.LittleEndian.PutUint32(d[12:16], 0)
		}, []error{ErrHeader}},
		{"chunk-count-over-cap", func(d []byte) {
			binary.LittleEndian.PutUint32(d[l.chunk0:], 1<<21)
		}, []error{ErrChunk}},
		{"chunk-count-off-by-one", func(d []byte) {
			binary.LittleEndian.PutUint32(d[l.chunk0:], 3)
		}, []error{ErrChunk, ErrChunkCRC}},
		{"chunk-body-byte", func(d []byte) { d[l.chunk0Rec] ^= 0x01 }, []error{ErrChunkCRC}},
		{"chunk-crc", func(d []byte) { d[l.chunk0CRC] ^= 0x01 }, []error{ErrChunkCRC}},
		{"record-reserved-flag-crc-fixed", func(d []byte) {
			d[l.chunk0Rec+8] |= 0x80 // reserved record flag bit
			l.fixChunk0CRC(d)
		}, []error{ErrRecord}},
		{"record-phase-outside-range-crc-fixed", func(d []byte) {
			d[l.chunk0Rec+10] = 7 // chunk 0's index entry declares 0..1
			l.fixChunk0CRC(d)
		}, []error{ErrIndex}},
		{"end-marker", func(d []byte) { d[l.endMarker] = 1 }, []error{ErrTrailer, ErrChunk, ErrChunkCRC, ErrTruncated}},
		{"trailer-count", func(d []byte) { d[l.trailer] ^= 0x01 }, []error{ErrTrailer}},
		{"index-entry-offset", func(d []byte) { d[l.index] ^= 0x01 }, []error{ErrIndex, ErrIndexCRC}},
		{"index-entry-count", func(d []byte) { d[l.index+8] ^= 0x01 }, []error{ErrIndex, ErrIndexCRC, ErrTrailer}},
		{"index-entry-phase-range", func(d []byte) { d[l.index+13] = 9 }, []error{ErrIndex, ErrIndexCRC}},
		{"index-entry-reserved-crc-fixed", func(d []byte) {
			d[l.index+14] = 1
			l.fixIndexCRC(d)
		}, []error{ErrIndex}},
		{"index-entry-phase-range-widened-crc-fixed", func(d []byte) {
			d[l.index+12], d[l.index+13] = 0, 255 // chunk 0 holds phases 0..1
			l.fixIndexCRC(d)
		}, []error{ErrIndex}},
		{"index-crc", func(d []byte) { d[l.indexCRC] ^= 0x01 }, []error{ErrIndexCRC}},
		{"footer-magic", func(d []byte) { d[l.footer] ^= 0xFF }, []error{ErrIndex}},
		{"footer-chunk-count", func(d []byte) { d[l.footer+4] ^= 0x01 }, []error{ErrIndex}},
		{"footer-index-offset", func(d []byte) { d[l.footer+8] ^= 0x01 }, []error{ErrIndex}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := bytes.Clone(l.data)
			tc.mutate(data)
			if bytes.Equal(data, l.data) {
				t.Fatal("mutation did not change the file")
			}
			for _, p := range readPaths {
				err := p.read(t, data)
				if err == nil {
					t.Errorf("%s: corrupt file read silently", p.name)
					continue
				}
				matched := false
				for _, want := range tc.want {
					if errors.Is(err, want) {
						matched = true
						break
					}
				}
				if !matched {
					t.Errorf("%s: error %v does not wrap any of %v", p.name, err, tc.want)
				}
			}
		})
	}

	t.Run("trailing-garbage", func(t *testing.T) {
		data := append(bytes.Clone(l.data), 0x00)
		for _, p := range readPaths {
			err := p.read(t, data)
			if err == nil {
				t.Errorf("%s: trailing garbage read silently", p.name)
			} else if !errors.Is(err, ErrTrailer) && !errors.Is(err, ErrIndex) {
				t.Errorf("%s: error %v wraps neither ErrTrailer nor ErrIndex", p.name, err)
			}
		}
	})
}

// TestCorruptionTruncation cuts the container at every byte boundary —
// which covers every structural boundary — and demands that every read
// path rejects every prefix with a named sentinel.
func TestCorruptionTruncation(t *testing.T) {
	l := buildV21(t)
	sentinels := []error{
		ErrHeader, ErrRecord, ErrChunk, ErrChunkCRC, ErrTrailer,
		ErrIndex, ErrIndexCRC, ErrTruncated,
	}
	for cut := 0; cut < len(l.data); cut++ {
		data := l.data[:cut]
		for _, p := range readPaths {
			err := p.read(t, data)
			if err == nil {
				t.Fatalf("%s: %d-byte truncation read silently", p.name, cut)
			}
			matched := false
			for _, want := range sentinels {
				if errors.Is(err, want) {
					matched = true
					break
				}
			}
			if !matched {
				t.Fatalf("%s: truncation at %d: error %v wraps no region sentinel", p.name, cut, err)
			}
		}
	}
}

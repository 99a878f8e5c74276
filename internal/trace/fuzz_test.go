package trace

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzReader feeds arbitrary bytes to the reader: whatever the input —
// truncated headers, hostile chunk counts, corrupt gzip bodies — the
// reader must terminate without panicking and either replay records or
// report an error, never both silently wrong.
func FuzzReader(f *testing.F) {
	// Seed with valid v1, v2 and v2-gzip files plus degenerate inputs.
	var v1 bytes.Buffer
	if _, err := Write(&v1, &SliceStream{Insts: sampleInsts()}); err != nil {
		f.Fatal(err)
	}
	f.Add(v1.Bytes())
	for _, o := range []V2Options{
		{}, {Compress: true}, {ChunkRecords: 2}, {Phases: true}, {Compress: true, Phases: true},
		// v2.1 corpora: checksummed, indexed, and both, plus tiny chunks
		// so the fuzzer reaches multi-chunk index mutations fast.
		{Checksums: true}, {Index: true}, {Checksums: true, Index: true},
		{Phases: true, Checksums: true, Index: true, ChunkRecords: 2},
	} {
		var v2 bytes.Buffer
		if _, err := WriteV2(&v2, &SliceStream{Insts: sampleInsts()}, o); err != nil {
			f.Fatal(err)
		}
		f.Add(v2.Bytes())
	}
	f.Add([]byte{})
	f.Add([]byte{0x54, 0x43, 0x44, 0x45})

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		n := 0
		for {
			if _, ok := r.Next(); !ok {
				break
			}
			n++
			if n > 1<<20 {
				t.Fatalf("runaway reader: %d records from a %d-byte input", n, len(data))
			}
		}
		// A clean end on a well-formed prefix is fine; an error is
		// fine; the reader just must have terminated, which it did.
		_ = r.Err()
	})
}

// FuzzRoundTrip derives an instruction stream from the fuzz input and
// checks that both containers replay it bit-exactly. Mode bits select
// the v2 variant: bit 0 gzip, bit 1 phases, bit 2 per-chunk CRC, bit 3
// chunk index (bits 2/3 are dropped under gzip — the combination is
// invalid by spec), higher bits the chunk size.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}, uint8(1))
	f.Add(bytes.Repeat([]byte{0xA5}, 300), uint8(3))
	// v2.1 seeds: CRC, index, both, and both with phases + tiny chunks.
	f.Add(bytes.Repeat([]byte{0x3C}, 64), uint8(4))
	f.Add(bytes.Repeat([]byte{0x5A}, 64), uint8(8))
	f.Add(bytes.Repeat([]byte{0x7E}, 200), uint8(12))
	f.Add(bytes.Repeat([]byte{0x99}, 200), uint8(14|16))

	f.Fuzz(func(t *testing.T, data []byte, mode uint8) {
		phased := mode&2 != 0
		insts := make([]Inst, 0, len(data)/2)
		for i := 0; i+1 < len(data); i += 2 {
			inst := Inst{PC: uint32(i) * 4, UseDist: data[i+1] % 8}
			switch data[i] % 4 {
			case 1:
				inst.IsLoad, inst.Addr = true, uint32(data[i+1])<<4
			case 2:
				inst.IsStore, inst.Addr = true, uint32(data[i+1])<<6
			case 3:
				inst.IsBranch, inst.Taken = true, data[i+1]%2 == 0
			}
			if phased {
				inst.Phase = data[i] % 5
			}
			insts = append(insts, inst)
		}
		o := V2Options{
			Compress: mode&1 != 0, Phases: phased,
			Checksums: mode&4 != 0, Index: mode&8 != 0,
			ChunkRecords: 1 + int(mode>>4),
		}
		if o.Compress {
			o.Checksums, o.Index = false, false
		}

		var v1, v2 bytes.Buffer
		if _, err := Write(&v1, &SliceStream{Insts: insts}); err != nil {
			t.Fatal(err)
		}
		if _, err := WriteV2(&v2, &SliceStream{Insts: insts}, o); err != nil {
			t.Fatal(err)
		}
		// v1 is frozen and discards phase annotations; v2 with the
		// phase flag round-trips them bit-exactly.
		stripped := make([]Inst, len(insts))
		copy(stripped, insts)
		for i := range stripped {
			stripped[i].Phase = 0
		}
		for name, tc := range map[string]struct {
			buf  *bytes.Buffer
			want []Inst
		}{"v1": {&v1, stripped}, "v2": {&v2, insts}} {
			r, err := NewReader(bytes.NewReader(tc.buf.Bytes()))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for i, want := range tc.want {
				got, ok := r.Next()
				if !ok {
					t.Fatalf("%s: stream ended at record %d of %d (err: %v)", name, i, len(tc.want), r.Err())
				}
				if got != want {
					t.Fatalf("%s: record %d: %+v != %+v", name, i, got, want)
				}
			}
			if _, ok := r.Next(); ok {
				t.Fatalf("%s: stream did not end after %d records", name, len(tc.want))
			}
			if r.Err() != nil {
				t.Fatalf("%s: %v", name, r.Err())
			}
		}
	})
}

// FuzzIndex aims the fuzzer at the seekable machinery: mutated
// footer/index bytes (and anything else — seeds are whole indexed
// files) must never panic the random-access consumers — the parallel
// indexed arena loader and the mmap arena — and must never make them
// disagree with the streaming reader: any file the streaming reader
// accepts, the seekable paths must accept with the identical record
// sequence, and any file it rejects they must reject. An input whose
// footer and entries parse runs a second time with its index CRC
// recomputed, so mutated entry fields reach the semantic checks
// instead of stopping at the CRC.
func FuzzIndex(f *testing.F) {
	for _, o := range []V2Options{
		{Index: true},
		{Checksums: true, Index: true},
		{Phases: true, Checksums: true, Index: true, ChunkRecords: 2},
		{Phases: true, Index: true, ChunkRecords: 3},
	} {
		var buf bytes.Buffer
		if _, err := WriteV2(&buf, &SliceStream{Insts: sampleInsts()}, o); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		var empty bytes.Buffer
		if _, err := WriteV2(&empty, &SliceStream{}, o); err != nil {
			f.Fatal(err)
		}
		f.Add(empty.Bytes())
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		checkSeekableAgree(t, data)
		if fixed := withIndexCRCFixed(data); fixed != nil && !bytes.Equal(fixed, data) {
			checkSeekableAgree(t, fixed)
		}
	})
}

// checkSeekableAgree holds the arena loader and the mmap arena to the
// streaming reader's verdict and record sequence on data.
func checkSeekableAgree(t *testing.T, data []byte) {
	t.Helper()
	// The streaming reader is the oracle: its verdict on the mutated
	// bytes decides what the seekable paths must do.
	var want []Inst
	streamOK := false
	if r, err := NewReader(bytes.NewReader(data)); err == nil {
		for {
			inst, ok := r.Next()
			if !ok {
				break
			}
			want = append(want, inst)
			if len(want) > 1<<20 {
				t.Fatalf("runaway reader: %d records from a %d-byte input", len(want), len(data))
			}
		}
		streamOK = r.Err() == nil
	}

	path := filepath.Join(t.TempDir(), "fuzz.trace")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if a, err := LoadArenaFile(path); err == nil {
		if !streamOK {
			t.Fatal("arena loader accepted a file the streaming reader rejects")
		}
		if got := drainAll(a.Cursor()); !reflect.DeepEqual(got, want) {
			t.Fatalf("arena loaded %d records unlike the %d the stream read", len(got), len(want))
		}
	} else if streamOK {
		t.Fatalf("arena loader rejected a stream-valid file: %v", err)
	}
	if ma, err := OpenMapArena(path); err == nil {
		if !streamOK {
			t.Fatal("mmap arena accepted a file the streaming reader rejects")
		}
		if got := drainAll(ma.NewCursor()); !reflect.DeepEqual(got, want) {
			t.Fatalf("mmap arena mapped %d records unlike the %d the stream read", len(got), len(want))
		}
		ma.Close()
	} else if streamOK && !isUnmappable(err) {
		t.Fatalf("mmap arena rejected a stream-valid file: %v", err)
	}
}

// withIndexCRCFixed returns a copy of data with its index CRC
// recomputed over its entries, or nil when data's footer does not
// frame an index whose entries parse.
func withIndexCRCFixed(data []byte) []byte {
	if len(data) < indexFooterBytes {
		return nil
	}
	chunks, off, err := getIndexFooter(data[len(data)-indexFooterBytes:])
	end := off + int64(chunks)*indexEntryBytes
	if err != nil || off < v2HeaderBytes || end+chunkCRCBytes+indexFooterBytes != int64(len(data)) {
		return nil
	}
	for e := off; e < end; e += indexEntryBytes {
		if _, err := getIndexEntry(data[e:]); err != nil {
			return nil
		}
	}
	fixed := bytes.Clone(data)
	binary.LittleEndian.PutUint32(fixed[end:], crc32.Checksum(data[off:end], castagnoli))
	return fixed
}

// sampleInsts mirrors serialize_test.go's sample for fuzz seeds.
func sampleInsts() []Inst {
	return []Inst{
		{PC: 0x400000},
		{PC: 0x400004, IsLoad: true, Addr: 0x10000000, UseDist: 1},
		{PC: 0x400008, IsStore: true, Addr: 0x10000040},
		{PC: 0x40000C, IsBranch: true, Taken: true},
	}
}

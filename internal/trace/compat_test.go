package trace

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// The cross-version compat matrix: every container variant the format
// family defines — v1, v2 plain/gzip/phased, and the v2.1 CRC/index
// extensions — is written, read through every consumer path that must
// accept it, checked against the paths that must reject it, and
// re-serialised bit-identically.

// compatVariant is one container variant of the matrix.
type compatVariant struct {
	name string
	v1   bool
	o    V2Options // ignored for v1
}

var compatVariants = []compatVariant{
	{name: "v1", v1: true},
	{name: "v2", o: V2Options{ChunkRecords: 4}},
	{name: "v2-gzip", o: V2Options{ChunkRecords: 4, Compress: true}},
	{name: "v2-phases", o: V2Options{ChunkRecords: 4, Phases: true}},
	{name: "v2-gzip-phases", o: V2Options{ChunkRecords: 4, Compress: true, Phases: true}},
	{name: "v21-crc", o: V2Options{ChunkRecords: 4, Checksums: true}},
	{name: "v21-index", o: V2Options{ChunkRecords: 4, Index: true}},
	{name: "v21-crc-index", o: V2Options{ChunkRecords: 4, Checksums: true, Index: true}},
	{name: "v21-crc-index-phases", o: V2Options{ChunkRecords: 4, Checksums: true, Index: true, Phases: true}},
	{name: "v21-crc-index-one-chunk", o: V2Options{ChunkRecords: 64, Checksums: true, Index: true}},
}

// write serialises insts in the variant's format.
func (v compatVariant) write(t *testing.T, insts []Inst) []byte {
	t.Helper()
	if !v.v1 {
		return writeV2(t, insts, v.o)
	}
	var buf bytes.Buffer
	if _, err := Write(&buf, &SliceStream{Insts: insts}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// expected is what any reader must produce from the variant's file:
// phase ids survive only when the variant advertises them.
func (v compatVariant) expected(insts []Inst) []Inst {
	out := make([]Inst, len(insts))
	copy(out, insts)
	if v.v1 || !v.o.Phases {
		for i := range out {
			out[i].Phase = 0
		}
	}
	return out
}

func TestCompatMatrix(t *testing.T) {
	insts := corpusInsts()
	for _, v := range compatVariants {
		t.Run(v.name, func(t *testing.T) {
			data := v.write(t, insts)
			want := v.expected(insts)
			path := filepath.Join(t.TempDir(), "compat.trace")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}

			// Streaming: accepted, with the right capability bits.
			r, err := NewReader(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			got := readAll(t, r)
			if err := r.Err(); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Error("streamed records differ from written records")
			}
			if !v.v1 {
				if r.HasChecksums() != v.o.Checksums {
					t.Errorf("HasChecksums() = %v, want %v", r.HasChecksums(), v.o.Checksums)
				}
				if r.HasIndex() != v.o.Index {
					t.Errorf("HasIndex() = %v, want %v", r.HasIndex(), v.o.Index)
				}
				if r.HasPhases() != v.o.Phases {
					t.Errorf("HasPhases() = %v, want %v", r.HasPhases(), v.o.Phases)
				}
			}

			// Slab loading, streaming and file-backed (the latter takes
			// the parallel path for indexed variants).
			for _, load := range []struct {
				name string
				do   func() (*Arena, error)
			}{
				{"loadArena", func() (*Arena, error) { return loadArena(bytes.NewReader(data)) }},
				{"LoadArenaFile", func() (*Arena, error) { return LoadArenaFile(path) }},
			} {
				a, err := load.do()
				if err != nil {
					t.Fatalf("%s: %v", load.name, err)
				}
				if got := drainAll(a.NewCursor()); !reflect.DeepEqual(got, want) {
					t.Errorf("%s records differ", load.name)
				}
			}

			// Mmap: every uncompressed variant maps, gzip must be refused
			// with ErrNotMappable (and OpenSlab must then fall back).
			ma, err := OpenMapArena(path)
			if v.v1 || !v.o.Compress {
				if err != nil {
					t.Fatalf("OpenMapArena: %v", err)
				}
				if got := drainAll(ma.NewCursor()); !reflect.DeepEqual(got, want) {
					t.Error("mmap records differ")
				}
				ma.Close()
			} else if !errors.Is(err, ErrNotMappable) {
				t.Errorf("OpenMapArena on gzip: error %v, want ErrNotMappable", err)
			}
			slab, err := OpenSlab(path, 1) // threshold 1: always try mapping
			if err != nil {
				t.Fatalf("OpenSlab: %v", err)
			}
			if got := drainAll(slab.NewCursor()); !reflect.DeepEqual(got, want) {
				t.Error("OpenSlab records differ")
			}
			if c, ok := slab.(interface{ Close() error }); ok {
				c.Close()
			}

			// Bit-identity: re-serialising what was read, with the same
			// options, must reproduce the file byte for byte.
			var buf bytes.Buffer
			if v.v1 {
				if _, err := Write(&buf, &SliceStream{Insts: got}); err != nil {
					t.Fatal(err)
				}
			} else {
				if _, err := WriteV2(&buf, &SliceStream{Insts: got}, v.o); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(buf.Bytes(), data) {
				t.Error("re-serialisation is not bit-identical")
			}
		})
	}
}

// drainAll empties a stream via its batch path.
func drainAll(s Stream) []Inst {
	var out []Inst
	buf := make([]Inst, 7)
	for {
		n := Fill(s, buf)
		if n == 0 {
			return out
		}
		out = append(out, buf[:n]...)
	}
}

// TestCompatRejectsFutureBits proves forward compatibility is loud: a
// file advertising a stream-flag bit this reader does not know is
// rejected by every path with ErrHeader, not replayed with the unknown
// extension silently ignored.
func TestCompatRejectsFutureBits(t *testing.T) {
	data := writeV2(t, corpusInsts(), V2Options{ChunkRecords: 4})
	data[8] |= 0x40 // a future stream-flag bit
	path := filepath.Join(t.TempDir(), "future.trace")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, p := range []struct {
		name string
		do   func() error
	}{
		{"NewReader", func() error { _, err := NewReader(bytes.NewReader(data)); return err }},
		{"loadArena", func() error { _, err := loadArena(bytes.NewReader(data)); return err }},
		{"LoadArenaFile", func() error { _, err := LoadArenaFile(path); return err }},
		{"OpenMapArena", func() error { _, err := OpenMapArena(path); return err }},
		{"OpenSlab", func() error { _, err := OpenSlab(path, 1); return err }},
	} {
		if err := p.do(); !errors.Is(err, ErrHeader) {
			t.Errorf("%s: error %v, want ErrHeader", p.name, err)
		}
	}
}

// TestCompatEmptyTrace pins the degenerate container: zero records is
// legal in every variant (an indexed empty file carries a 0-entry
// index), reads back empty everywhere, and stays bit-identical.
func TestCompatEmptyTrace(t *testing.T) {
	for _, v := range compatVariants {
		t.Run(v.name, func(t *testing.T) {
			data := v.write(t, nil)
			path := filepath.Join(t.TempDir(), "empty.trace")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			a, err := LoadArenaFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if a.Len() != 0 {
				t.Errorf("empty trace loaded %d records", a.Len())
			}
			if v.v1 || !v.o.Compress {
				ma, err := OpenMapArena(path)
				if err != nil {
					t.Fatal(err)
				}
				if ma.Len() != 0 {
					t.Errorf("empty trace mapped %d records", ma.Len())
				}
				ma.Close()
			}
		})
	}
}

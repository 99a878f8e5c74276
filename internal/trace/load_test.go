package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
)

// loadInsts is a deterministic n-record stream covering every record
// field, phase ids included when phased.
func loadInsts(n int, phased bool) []Inst {
	insts := make([]Inst, n)
	for i := range insts {
		inst := Inst{PC: uint32(0x400000 + 4*i), UseDist: uint8(i % 5)}
		switch i % 4 {
		case 1:
			inst.IsLoad, inst.Addr = true, uint32(0x10000000+52*i)
		case 2:
			inst.IsStore, inst.Addr = true, uint32(0x20000000+36*i)
		case 3:
			inst.IsBranch, inst.Taken = true, i%3 == 0
		}
		if phased {
			inst.Phase = uint8(i >> 14)
		}
		insts[i] = inst
	}
	return insts
}

// writeV1 serialises insts as a v1 container.
func writeV1(t testing.TB, insts []Inst) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := Write(&buf, &SliceStream{Insts: insts}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// allocatedBy returns the bytes the heap handed out while f ran
// (runtime.MemStats.TotalAlloc, which only grows).
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// loadSlack bounds what a load allocates besides its slab: the Reader's
// buffers (one chunk frame and one decoded chunk at the default chunk
// capacity, or a v1 window) and the file handle.
const loadSlack = 512 << 10

// TestLoadArenaFileSizesSlabOnce: a file whose container declares its
// record total (indexed and plain v2 in their trailer, v1 in its size)
// loads into a slab allocated once at its final size. A load that had
// to grow its slab window by window would allocate about three times
// the slab; the pin allows 10 % over it plus the reader's buffers.
func TestLoadArenaFileSizesSlabOnce(t *testing.T) {
	const n = 200_000
	insts := loadInsts(n, true)
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"v2-indexed", writeV2(t, insts, V2Options{Phases: true, Checksums: true, Index: true})},
		{"v2-plain", writeV2(t, insts, V2Options{})},
		{"v1", writeV1(t, insts)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := NewReader(bytes.NewReader(tc.data))
			if err != nil {
				t.Fatal(err)
			}
			want := readWindows(t, r, DefaultChunkRecords, len(tc.data))
			if r.Err() != nil || len(want) != n {
				t.Fatalf("streaming reader read %d records, err %v", len(want), r.Err())
			}
			path := tempTrace(t, tc.data)
			var a *Arena
			got := allocatedBy(func() { a, err = LoadArenaFile(path) })
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(a.insts, want) {
				t.Fatal("loaded slab differs from the streaming reader's records")
			}
			t.Logf("load allocated %d bytes for a %d-byte slab", got, 16*n)
			if limit := uint64(1.1*16*n) + loadSlack; got > limit {
				t.Errorf("load allocated %d bytes for a %d-byte slab, limit %d", got, 16*n, limit)
			}
		})
	}
}

// TestLoadArenaFileBoundsDeclaredTotal: the record total LoadArenaFile
// peeks to size its slab is read before anything validates it. A
// trailer claiming 2^40 records — at the end of a plain container, or
// where an indexed container's footer points — must fail as a corrupt
// trailer without the load allocating beyond what the file's size can
// hold.
func TestLoadArenaFileBoundsDeclaredTotal(t *testing.T) {
	insts := loadInsts(100, false)
	for _, tc := range []struct {
		name    string
		data    []byte
		trailer func(data []byte) int // offset of the 8-byte trailer
	}{
		{"v2-plain", writeV2(t, insts, V2Options{ChunkRecords: 16}), func(d []byte) int { return len(d) - 8 }},
		{"v2-indexed", writeV2(t, insts, V2Options{ChunkRecords: 16, Checksums: true, Index: true}), func(d []byte) int {
			_, indexOff, err := getIndexFooter(d[len(d)-indexFooterBytes:])
			if err != nil {
				t.Fatal(err)
			}
			return int(indexOff) - 8
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := bytes.Clone(tc.data)
			off := tc.trailer(data)
			if got := binary.LittleEndian.Uint64(data[off:]); got != uint64(len(insts)) {
				t.Fatalf("trailer at %d holds %d, want %d", off, got, len(insts))
			}
			binary.LittleEndian.PutUint64(data[off:], 1<<40)
			path := tempTrace(t, data)
			var err error
			got := allocatedBy(func() { _, err = LoadArenaFile(path) })
			if !errors.Is(err, ErrTrailer) {
				t.Fatalf("load error %v, want one wrapping %v", err, ErrTrailer)
			}
			t.Logf("load of a %d-byte file allocated %d bytes", len(data), got)
			if limit := uint64(1.1*16*float64(len(data))/recordBytes) + loadSlack; got > limit {
				t.Errorf("load of a %d-byte file allocated %d bytes, limit %d", len(data), got, limit)
			}
		})
	}
}

// BenchmarkLoadTrace measures turning a trace file into a replayable
// slab, at 500k records per file: LoadArenaFile on each container kind
// (indexed, plain, gzip and v1) and OpenMapArena on the indexed file.
// ns/inst is the cost of one loaded record.
func BenchmarkLoadTrace(b *testing.B) {
	const n = 500_000
	insts := loadInsts(n, true)
	write := func(b *testing.B, name string, data []byte, err error) string {
		if err != nil {
			b.Fatal(err)
		}
		path := filepath.Join(b.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			b.Fatal(err)
		}
		return path
	}
	v2 := func(b *testing.B, name string, o V2Options) string {
		var buf bytes.Buffer
		_, err := WriteV2(&buf, &SliceStream{Insts: insts}, o)
		return write(b, name, buf.Bytes(), err)
	}
	report := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/inst")
	}
	indexed := V2Options{Phases: true, Checksums: true, Index: true}
	for _, tc := range []struct {
		name string
		file func(b *testing.B) string
	}{
		{"indexed", func(b *testing.B) string { return v2(b, "indexed.trace", indexed) }},
		{"plain", func(b *testing.B) string { return v2(b, "plain.trace", V2Options{}) }},
		{"gzip", func(b *testing.B) string { return v2(b, "gzip.trace", V2Options{Compress: true, Phases: true}) }},
		{"v1", func(b *testing.B) string { return write(b, "v1.trace", writeV1(b, insts), nil) }},
	} {
		b.Run("load/"+tc.name, func(b *testing.B) {
			path := tc.file(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := LoadArenaFile(path); err != nil {
					b.Fatal(err)
				}
			}
			report(b)
		})
	}
	b.Run("mapopen/indexed", func(b *testing.B) {
		path := v2(b, "indexed.trace", indexed)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a, err := OpenMapArena(path)
			if err != nil {
				b.Fatal(err)
			}
			a.Close()
		}
		report(b)
	})
}

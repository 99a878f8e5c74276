package trace_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"edcache/internal/trace"
)

// writeTraceFile serialises insts to a file in the given v2 options.
func writeTraceFile(t *testing.T, insts []trace.Inst, o trace.V2Options) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := trace.WriteV2(&buf, &trace.SliceStream{Insts: insts}, o); err != nil {
		t.Fatal(err)
	}
	return writeBytesFile(t, buf.Bytes())
}

// writeBytesFile writes a serialised container to a file for the
// path-based loaders.
func writeBytesFile(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "arena.trace")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestMapArenaMatchesArena is the representation-level half of the
// differential oracle: for every mappable variant, the mmap arena and
// the materialized slab must expose identical length, phase bit and
// record sequence under random-window replay.
func TestMapArenaMatchesArena(t *testing.T) {
	for _, tc := range []struct {
		name   string
		phased bool
		o      trace.V2Options
	}{
		{"plain", false, trace.V2Options{ChunkRecords: 64}},
		{"crc", false, trace.V2Options{ChunkRecords: 64, Checksums: true}},
		{"crc-index", false, trace.V2Options{ChunkRecords: 64, Checksums: true, Index: true}},
		{"phased-crc-index", true, trace.V2Options{ChunkRecords: 64, Phases: true, Checksums: true, Index: true}},
		{"index-only", true, trace.V2Options{ChunkRecords: 64, Phases: true, Index: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			insts := randomInsts(1000, tc.phased, 7)
			path := writeTraceFile(t, insts, tc.o)
			slab, err := trace.LoadArenaFile(path)
			if err != nil {
				t.Fatal(err)
			}
			mapped, err := trace.OpenMapArena(path)
			if err != nil {
				t.Fatal(err)
			}
			defer mapped.Close()
			if slab.Len() != mapped.Len() {
				t.Fatalf("Len: slab %d, mapped %d", slab.Len(), mapped.Len())
			}
			if slab.HasPhases() != mapped.HasPhases() {
				t.Fatalf("HasPhases: slab %v, mapped %v", slab.HasPhases(), mapped.HasPhases())
			}
			for seed := int64(0); seed < 4; seed++ {
				want := drain(slab.NewCursor(), seed)
				got := drain(mapped.NewCursor(), seed)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: mapped replay diverges from slab replay", seed)
				}
			}
		})
	}
}

// TestMapArenaV1 maps the flat legacy container too.
func TestMapArenaV1(t *testing.T) {
	insts := randomInsts(200, false, 3)
	var buf bytes.Buffer
	if _, err := trace.Write(&buf, &trace.SliceStream{Insts: insts}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "v1.trace")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	a, err := trace.OpenMapArena(path)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if got := drain(a.NewCursor(), 2); !reflect.DeepEqual(got, insts) {
		t.Error("mapped v1 replay diverges from the written records")
	}
}

// TestMapArenaConcurrentCursors replays 16 independent cursors over one
// mapped arena concurrently — the -race half of the oracle: cursors
// share only immutable mapped bytes, so the race detector must stay
// silent while every cursor sees the full sequence.
func TestMapArenaConcurrentCursors(t *testing.T) {
	insts := randomInsts(5000, true, 11)
	path := writeTraceFile(t, insts, trace.V2Options{ChunkRecords: 256, Phases: true, Checksums: true, Index: true})
	a, err := trace.OpenMapArena(path)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got := drain(a.NewCursor(), int64(g))
			if !reflect.DeepEqual(got, insts) {
				t.Errorf("cursor %d diverged", g)
			}
		}(g)
	}
	wg.Wait()
}

// TestMapCursorReset pins cursor rewind: a replayed-then-reset cursor
// must reproduce the sequence from the start.
func TestMapCursorReset(t *testing.T) {
	insts := randomInsts(300, false, 5)
	path := writeTraceFile(t, insts, trace.V2Options{ChunkRecords: 64, Checksums: true, Index: true})
	a, err := trace.OpenMapArena(path)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	c := a.NewCursor()
	first := drain(c, 1)
	type resetter interface{ Reset() }
	c.(resetter).Reset()
	second := drain(c, 2)
	if !reflect.DeepEqual(first, insts) || !reflect.DeepEqual(second, insts) {
		t.Error("reset cursor diverges from the written records")
	}
}

// TestOpenSlabThreshold pins the representation switch: files at or
// above the threshold map, smaller ones materialise, and gzip files
// fall back to slabs whatever their size.
func TestOpenSlabThreshold(t *testing.T) {
	insts := randomInsts(500, false, 9)
	plain := writeTraceFile(t, insts, trace.V2Options{ChunkRecords: 64, Checksums: true, Index: true})
	gz := writeTraceFile(t, insts, trace.V2Options{ChunkRecords: 64, Compress: true})

	big, err := trace.OpenSlab(plain, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := big.(*trace.MapArena); !ok {
		t.Errorf("above-threshold file opened as %T, want *trace.MapArena", big)
	}
	big.(*trace.MapArena).Close()

	small, err := trace.OpenSlab(plain, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := small.(*trace.Arena); !ok {
		t.Errorf("below-threshold file opened as %T, want *trace.Arena", small)
	}

	fallback, err := trace.OpenSlab(gz, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := fallback.(*trace.Arena); !ok {
		t.Errorf("gzip file opened as %T, want *trace.Arena fallback", fallback)
	}

	// All three replay identically regardless of representation.
	want := drain(small.NewCursor(), 2)
	if !reflect.DeepEqual(want, insts) {
		t.Fatal("slab replay diverges from the written records")
	}
	if got := drain(fallback.NewCursor(), 2); !reflect.DeepEqual(got, want) {
		t.Error("gzip fallback replay diverges")
	}
}

package trace_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"edcache/internal/bench"
	"edcache/internal/trace"
)

// checkWindows drains s with a seeded random sequence of window sizes
// and holds every window to the Stream contract: exactly
// min(max, remaining) records, an empty window only at the end, and
// the concatenation equal to want.
func checkWindows(t *testing.T, s trace.Stream, want []trace.Inst, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var got []trace.Inst
	for {
		max := 1 + rng.Intn(24)
		if rng.Intn(4) == 0 {
			max = 1 + rng.Intn(300)
		}
		w := s.NextSlice(max)
		if n := min(max, len(want)-len(got)); len(w) != n {
			t.Fatalf("after %d records: window of %d for max %d, want %d", len(got), len(w), max, n)
		}
		if cap(w) != len(w) {
			t.Fatalf("after %d records: window of %d has capacity %d, so an append writes past it", len(got), len(w), cap(w))
		}
		if len(w) == 0 {
			break
		}
		got = append(got, w...)
	}
	if len(s.NextSlice(8)) != 0 {
		t.Fatal("exhausted stream served another window")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("windows do not concatenate to the source")
	}
}

// TestNextSliceServesFullWindows drives every trace source through
// random window sizes, including Readers and mapped cursors whose
// 11-record chunks no window size aligns with, and a workload
// generator; every window must be capped at its length.
func TestNextSliceServesFullWindows(t *testing.T) {
	for _, src := range windowSources(t) {
		t.Run(src.name, func(t *testing.T) {
			for seed := int64(0); seed < 8; seed++ {
				checkWindows(t, src.open(t), src.want, seed)
			}
		})
	}
}

// TestAppendToWindowLeavesOtherStreams appends to one stream's window
// and then reads on: neither a second stream over the same backing (the
// shared slab, slice or mapping) nor the rest of the first stream may
// see the appended record.
func TestAppendToWindowLeavesOtherStreams(t *testing.T) {
	for _, src := range windowSources(t) {
		t.Run(src.name, func(t *testing.T) {
			a, b := src.open(t), src.open(t)
			// 5 records lie inside one 11-record chunk: a Reader serves
			// them as a view of its decoded chunk.
			w := a.NextSlice(5)
			w = append(w, trace.Inst{PC: 0xDEADBEEF, Addr: 0xDEADBEEF, IsStore: true})
			if w[5].PC != 0xDEADBEEF {
				t.Fatal("append lost")
			}
			for i, s := range []trace.Stream{b, a} {
				got, want := drain(s, int64(i)), src.want[5*i:]
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("stream %d reads %d records after the append, not its %d source records", i, len(got), len(want))
				}
			}
		})
	}
}

type windowSource struct {
	name string
	open func(t *testing.T) trace.Stream
	want []trace.Inst
}

// windowSources lists every trace.Stream source over one 1000-record
// source. open may be called more than once; slab, slice and mapped
// streams then share their backing.
func windowSources(t *testing.T) []windowSource {
	insts := randomInsts(1000, true, 21)
	unphased := make([]trace.Inst, len(insts))
	copy(unphased, insts)
	for i := range unphased {
		unphased[i].Phase = 0
	}
	var v1 bytes.Buffer
	if _, err := trace.Write(&v1, &trace.SliceStream{Insts: insts}); err != nil {
		t.Fatal(err)
	}
	v2 := func(o trace.V2Options) []byte {
		var b bytes.Buffer
		if _, err := trace.WriteV2(&b, &trace.SliceStream{Insts: insts}, o); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	chunk11 := v2(trace.V2Options{ChunkRecords: 11, Phases: true, Checksums: true, Index: true})
	gzipped := v2(trace.V2Options{ChunkRecords: 11, Phases: true, Compress: true})
	reader := func(data []byte) func(t *testing.T) trace.Stream {
		return func(t *testing.T) trace.Stream {
			r, err := trace.NewReader(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() {
				if r.Err() != nil {
					t.Error(r.Err())
				}
			})
			return r
		}
	}
	mapped := func(data []byte) func(t *testing.T) trace.Stream {
		return func(t *testing.T) trace.Stream {
			a, err := trace.OpenMapArena(writeBytesFile(t, data))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { a.Close() })
			return a.NewCursor()
		}
	}
	slab := trace.NewArena(&trace.SliceStream{Insts: insts}, 0)
	w, err := bench.ByName("gsm_c")
	if err != nil {
		t.Fatal(err)
	}
	w = w.ScaledTo(len(insts))
	generated := drain(w.Stream(), 0)
	return []windowSource{
		{"slice", func(*testing.T) trace.Stream { return &trace.SliceStream{Insts: insts} }, insts},
		{"cursor", func(*testing.T) trace.Stream { return slab.Cursor() }, insts},
		{"mapcursor-v1", mapped(v1.Bytes()), unphased},
		{"mapcursor-v2-chunk11", mapped(chunk11), insts},
		{"reader-v1", reader(v1.Bytes()), unphased},
		{"reader-v2-chunk11", reader(chunk11), insts},
		{"reader-gzip-chunk11", reader(gzipped), insts},
		{"generator", func(*testing.T) trace.Stream { return w.Stream() }, generated},
	}
}

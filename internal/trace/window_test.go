package trace_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

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
// 11-record chunks no window size aligns with.
func TestNextSliceServesFullWindows(t *testing.T) {
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
	for _, tc := range []struct {
		name string
		open func(t *testing.T) trace.Stream
		want []trace.Inst
	}{
		{"slice", func(*testing.T) trace.Stream { return &trace.SliceStream{Insts: insts} }, insts},
		{"cursor", func(*testing.T) trace.Stream { return trace.NewArena(&trace.SliceStream{Insts: insts}, 0).Cursor() }, insts},
		{"mapcursor-v1", mapped(v1.Bytes()), unphased},
		{"mapcursor-v2-chunk11", mapped(chunk11), insts},
		{"reader-v1", reader(v1.Bytes()), unphased},
		{"reader-v2-chunk11", reader(chunk11), insts},
		{"reader-gzip-chunk11", reader(gzipped), insts},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(0); seed < 8; seed++ {
				checkWindows(t, tc.open(t), tc.want, seed)
			}
		})
	}
}

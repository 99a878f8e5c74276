package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
)

// phasedSample returns a stream crossing three phases.
func phasedSample() []Inst {
	insts := make([]Inst, 90)
	for i := range insts {
		insts[i] = Inst{PC: uint32(i * 4), Phase: uint8(i / 30)}
		if i%3 == 0 {
			insts[i].IsLoad = true
			insts[i].Addr = uint32(0x1000 + i*4)
			insts[i].UseDist = uint8(1 + i%3)
		}
	}
	return insts
}

func TestV2PhaseRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		o    V2Options
	}{
		{"plain", V2Options{Phases: true}},
		{"gzip", V2Options{Phases: true, Compress: true}},
		{"tiny-chunks", V2Options{Phases: true, ChunkRecords: 7}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			insts := phasedSample()
			data := writeV2(t, insts, tc.o)
			r, err := NewReader(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			if !r.HasPhases() {
				t.Error("phase flag not advertised")
			}
			got := readAll(t, r)
			if r.Err() != nil {
				t.Fatal(r.Err())
			}
			if !reflect.DeepEqual(got, insts) {
				t.Error("phased records did not round-trip bit-exactly")
			}
			if r.UnadvertisedPhaseBytes() != 0 {
				t.Errorf("advertised phases counted as stray: %d", r.UnadvertisedPhaseBytes())
			}
		})
	}
}

func TestV2PhaselessWriteDropsPhaseIDs(t *testing.T) {
	// Without V2Options.Phases the writer keeps byte 10 reserved-zero,
	// so the file reads exactly like a pre-phase v2 trace.
	data := writeV2(t, phasedSample(), V2Options{})
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if r.HasPhases() {
		t.Error("phase flag set without V2Options.Phases")
	}
	for i, inst := range readAll(t, r) {
		if inst.Phase != 0 {
			t.Fatalf("record %d: phase %d leaked into a phase-less container", i, inst.Phase)
		}
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if r.UnadvertisedPhaseBytes() != 0 {
		t.Errorf("clean phase-less file reported %d stray phase bytes", r.UnadvertisedPhaseBytes())
	}
}

func TestV1WriteDropsPhaseIDs(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Write(&buf, &SliceStream{Insts: phasedSample()}); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.HasPhases() {
		t.Error("v1 cannot advertise phases")
	}
	for i, inst := range readAll(t, r) {
		if inst.Phase != 0 {
			t.Fatalf("record %d: v1 carried phase %d", i, inst.Phase)
		}
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
}

func TestUnadvertisedPhaseBytesCounted(t *testing.T) {
	// A phase-annotated body whose header lost the phase flag: records
	// still replay (reserved bytes are ignored) but the reader counts
	// the mismatch so tools can surface it.
	insts := phasedSample()
	data := writeV2(t, insts, V2Options{Phases: true})
	binary.LittleEndian.PutUint32(data[8:12], 0) // clear stream flags
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if r.HasPhases() {
		t.Fatal("cleared flag still advertised")
	}
	got := readAll(t, r)
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if len(got) != len(insts) {
		t.Fatalf("replayed %d of %d records", len(got), len(insts))
	}
	want := uint64(0)
	for _, inst := range insts {
		if inst.Phase != 0 {
			want++
		}
	}
	if r.UnadvertisedPhaseBytes() != want {
		t.Errorf("stray phase bytes %d, want %d", r.UnadvertisedPhaseBytes(), want)
	}
}

// batchedStream hands out at most batch records per NextBatch call.
type batchedStream struct {
	SliceStream
	batch int
}

func (s *batchedStream) NextBatch(buf []Inst) int {
	return s.SliceStream.NextBatch(buf[:min(len(buf), s.batch)])
}

func TestWriteV2ChunksIndependentOfSourceBatches(t *testing.T) {
	// A source handing out one record, or 13, per batch — batches that
	// straddle the 11-record chunks — yields the very container a
	// whole-slice source does, and it replays bit-identically.
	insts := phasedSample()
	o := V2Options{Phases: true, Checksums: true, Index: true, ChunkRecords: 11}
	want := writeV2(t, insts, o)
	for _, batch := range []int{1, 13} {
		var sink bytes.Buffer
		if _, err := WriteV2(&sink, &batchedStream{SliceStream{Insts: insts}, batch}, o); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sink.Bytes(), want) {
			t.Errorf("batch=%d: container differs from the whole-slice source's", batch)
		}
		r, err := NewReader(bytes.NewReader(sink.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		captured := readAll(t, r)
		if r.Err() != nil {
			t.Fatal(r.Err())
		}
		if !reflect.DeepEqual(captured, insts) {
			t.Errorf("batch=%d: container does not replay bit-identically", batch)
		}
	}
}

// failAfter fails every write once limit bytes have been accepted.
type failAfter struct {
	limit int
	wrote int
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.wrote+len(p) > f.limit {
		return 0, errSinkFull
	}
	f.wrote += len(p)
	return len(p), nil
}

var errSinkFull = bytes.ErrTooLarge

func TestWriteV2ReturnsSinkError(t *testing.T) {
	// A sink that fails partway — in the header, mid-body or at the
	// final flush — fails WriteV2 with the sink's error, so a truncated
	// container never passes as a complete one.
	insts := make([]Inst, 3000)
	for i := range insts {
		insts[i] = Inst{PC: uint32(4 * i), IsLoad: i%3 == 0, Addr: uint32(i * 40), Phase: uint8(i / 1000)}
	}
	for _, o := range []V2Options{
		{ChunkRecords: 64, Phases: true, Checksums: true, Index: true},
		{ChunkRecords: 64, Compress: true},
	} {
		full := writeV2(t, insts, o)
		for _, limit := range []int{0, 64, len(full) / 2, len(full) - 1} {
			if _, err := WriteV2(&failAfter{limit: limit}, &SliceStream{Insts: insts}, o); !errors.Is(err, errSinkFull) {
				t.Errorf("%+v, sink full after %d of %d bytes: error %v, want the sink's", o, limit, len(full), err)
			}
		}
	}
}

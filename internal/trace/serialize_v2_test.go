package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
)

// writeV2 is a test helper serialising a slice with the given options.
func writeV2(t *testing.T, insts []Inst, o V2Options) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := WriteV2(&buf, &SliceStream{Insts: insts}, o)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(insts)) {
		t.Fatalf("WriteV2 reported %d records, want %d", n, len(insts))
	}
	return buf.Bytes()
}

// readAll drains r one record per window, the finest grain a consumer
// can pull.
func readAll(t *testing.T, r *Reader) []Inst {
	t.Helper()
	var out []Inst
	for w := r.NextSlice(1); len(w) > 0; w = r.NextSlice(1) {
		out = append(out, w...)
	}
	return out
}

func TestV2RoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		o    V2Options
	}{
		{"plain", V2Options{}},
		{"gzip", V2Options{Compress: true}},
		{"tiny-chunks", V2Options{ChunkRecords: 2}},
		{"gzip-tiny-chunks", V2Options{Compress: true, ChunkRecords: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := writeV2(t, sample(), tc.o)
			r, err := NewReader(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			if r.Version() != 2 {
				t.Errorf("Version() = %d", r.Version())
			}
			if r.Compressed() != tc.o.Compress {
				t.Errorf("Compressed() = %v", r.Compressed())
			}
			got := readAll(t, r)
			if r.Err() != nil {
				t.Fatal(r.Err())
			}
			want := sample()
			if len(got) != len(want) {
				t.Fatalf("replayed %d records, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("record %d: %+v != %+v", i, got[i], want[i])
				}
			}
		})
	}
}

func TestV2EmptyTrace(t *testing.T) {
	data := writeV2(t, nil, V2Options{Compress: true})
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.NextSlice(1)) != 0 {
		t.Error("empty trace produced a record")
	}
	if r.Err() != nil {
		t.Error(r.Err())
	}
}

func TestV2NextBatch(t *testing.T) {
	insts := make([]Inst, 1000)
	for i := range insts {
		insts[i] = Inst{PC: uint32(i * 4), IsLoad: i%2 == 0, Addr: uint32(i), UseDist: uint8(i % 4)}
	}
	data := writeV2(t, insts, V2Options{ChunkRecords: 64})
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	// Odd batch size so batches straddle chunk boundaries.
	buf := make([]Inst, 37)
	var got []Inst
	for {
		n := r.NextBatch(buf)
		if n == 0 {
			break
		}
		got = append(got, buf[:n]...)
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if len(got) != len(insts) {
		t.Fatalf("batched replay returned %d records, want %d", len(got), len(insts))
	}
	for i := range insts {
		if got[i] != insts[i] {
			t.Fatalf("record %d: %+v != %+v", i, got[i], insts[i])
		}
	}
}

func TestV2InterleavedNextAndBatch(t *testing.T) {
	insts := make([]Inst, 200)
	for i := range insts {
		insts[i] = Inst{PC: uint32(i * 4)}
	}
	data := writeV2(t, insts, V2Options{ChunkRecords: 16})
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	// NextSlice windows and NextBatch copies, alternated, read one
	// sequence.
	var got []Inst
	buf := make([]Inst, 7)
	for i := 0; ; i++ {
		if i%2 == 0 {
			w := r.NextSlice(5)
			if len(w) == 0 {
				break
			}
			got = append(got, w...)
		} else {
			n := r.NextBatch(buf)
			if n == 0 {
				break
			}
			got = append(got, buf[:n]...)
		}
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if len(got) != len(insts) {
		t.Fatalf("got %d records, want %d", len(got), len(insts))
	}
	for i := range insts {
		if got[i] != insts[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}

// TestV2StreamsThroughPipe proves the no-materialisation property: the
// reader replays from a pipe whose writer is still producing, so it
// cannot possibly be buffering the whole trace (and neither can the
// writer — the pipe has no backing store).
func TestV2StreamsThroughPipe(t *testing.T) {
	const n = 500_000
	insts := func() *SliceStream {
		s := &SliceStream{Insts: make([]Inst, n)}
		for i := range s.Insts {
			s.Insts[i] = Inst{PC: uint32(i * 4), IsLoad: true, Addr: uint32(i), UseDist: 1}
		}
		return s
	}
	pr, pw := io.Pipe()
	go func() {
		_, err := WriteV2(pw, insts(), V2Options{Compress: true, ChunkRecords: 1024})
		pw.CloseWithError(err)
	}()
	r, err := NewReader(pr)
	if err != nil {
		t.Fatal(err)
	}
	count := Count(r)
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if count != n {
		t.Fatalf("streamed %d records, want %d", count, n)
	}
}

func TestV2RejectsUnknownStreamFlags(t *testing.T) {
	data := writeV2(t, sample(), V2Options{})
	// Set a reserved stream-flag bit in the header.
	data[8] |= 0x80
	if _, err := NewReader(bytes.NewReader(data)); err == nil {
		t.Error("unknown v2 stream flag accepted")
	}
}

func TestV2RejectsUnknownRecordFlags(t *testing.T) {
	data := writeV2(t, sample(), V2Options{})
	// First record of the first chunk: header(16) + chunk count(4),
	// flags live at offset 8 of the record.
	data[16+4+8] |= 0x40
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, r)
	if r.Err() == nil {
		t.Error("unknown record flag bits accepted")
	}
}

func TestV2RejectsBadChunkCapacity(t *testing.T) {
	data := writeV2(t, sample(), V2Options{})
	for _, cap := range []uint32{0, MaxChunkRecords + 1} {
		d := append([]byte(nil), data...)
		binary.LittleEndian.PutUint32(d[12:16], cap)
		if _, err := NewReader(bytes.NewReader(d)); err == nil {
			t.Errorf("chunk capacity %d accepted", cap)
		}
	}
}

func TestV2TruncationDetected(t *testing.T) {
	data := writeV2(t, sample(), V2Options{ChunkRecords: 2})
	for _, cut := range []int{1, 5, 11, 17} {
		if cut >= len(data) {
			t.Fatalf("test cut %d beyond file length %d", cut, len(data))
		}
		r, err := NewReader(bytes.NewReader(data[:len(data)-cut]))
		if err != nil {
			continue // truncated inside the header: also fine
		}
		readAll(t, r)
		if r.Err() == nil {
			t.Errorf("truncation by %d bytes not detected", cut)
		}
	}
}

func TestV2TrailerMismatchDetected(t *testing.T) {
	data := writeV2(t, sample(), V2Options{})
	// Corrupt the 8-byte trailer (last 8 bytes of an uncompressed file).
	data[len(data)-8] ^= 1
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, r)
	if r.Err() == nil {
		t.Error("trailer mismatch not detected")
	}
}

func TestV2TrailingDataRejected(t *testing.T) {
	// Bytes after the trailer mean concatenation damage; both body
	// modes must reject them.
	for _, compress := range []bool{false, true} {
		data := writeV2(t, sample(), V2Options{Compress: compress})
		data = append(data, 0xAA)
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		readAll(t, r)
		if r.Err() == nil {
			t.Errorf("compress=%v: trailing byte after trailer accepted", compress)
		}
	}
}

func TestV2CorruptGzipDetected(t *testing.T) {
	data := writeV2(t, sample(), V2Options{Compress: true})
	// Flip a byte in the gzip body (past the 16-byte header and the
	// 10-byte gzip stream header so the reader construction succeeds).
	d := append([]byte(nil), data...)
	d[len(d)-5] ^= 0xFF
	r, err := NewReader(bytes.NewReader(d))
	if err != nil {
		return // corrupting the gzip framing itself: also detected
	}
	readAll(t, r)
	if r.Err() == nil {
		t.Error("gzip corruption not detected")
	}
}

func TestV2BadChunkSizeOption(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteV2(&buf, &SliceStream{}, V2Options{ChunkRecords: -1}); err == nil {
		t.Error("negative chunk size accepted")
	}
	if _, err := WriteV2(&buf, &SliceStream{}, V2Options{ChunkRecords: MaxChunkRecords + 1}); err == nil {
		t.Error("oversized chunk accepted")
	}
}

func TestV1RejectsUnknownRecordFlags(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Write(&buf, &SliceStream{Insts: sample()}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[8+8] |= 0x10 // first record's flags byte, reserved bit
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, r)
	if r.Err() == nil {
		t.Error("v1 unknown record flag bits accepted")
	}
}

func TestV1WriteOverflowRejected(t *testing.T) {
	defer func(old uint64) { maxV1Records = old }(maxV1Records)
	maxV1Records = 4
	var buf bytes.Buffer
	if _, err := Write(&buf, &SliceStream{Insts: sample()}); err == nil {
		t.Error("v1 record-count overflow not rejected")
	}
	// At exactly the limit the stream still fits.
	maxV1Records = uint64(len(sample()))
	buf.Reset()
	if n, err := Write(&buf, &SliceStream{Insts: sample()}); err != nil || n != len(sample()) {
		t.Errorf("Write at limit = %d, %v", n, err)
	}
}

func TestV1V2SameStreamSameRecords(t *testing.T) {
	// Both containers must carry the identical record sequence.
	insts := make([]Inst, 777)
	for i := range insts {
		insts[i] = Inst{PC: uint32(i), Addr: uint32(i * 3), IsStore: i%5 == 0, UseDist: uint8(i % 3)}
	}
	var v1 bytes.Buffer
	if _, err := Write(&v1, &SliceStream{Insts: insts}); err != nil {
		t.Fatal(err)
	}
	v2 := writeV2(t, insts, V2Options{Compress: true, ChunkRecords: 100})
	r1, err := NewReader(&v1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewReader(bytes.NewReader(v2))
	if err != nil {
		t.Fatal(err)
	}
	a, b := readAll(t, r1), readAll(t, r2)
	if r1.Err() != nil || r2.Err() != nil {
		t.Fatal(r1.Err(), r2.Err())
	}
	if len(a) != len(b) {
		t.Fatalf("v1 replayed %d records, v2 %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs between containers", i)
		}
	}
}

package trace

import (
	"bytes"
	"reflect"
	"testing"
)

func sample() []Inst {
	return []Inst{
		{PC: 0x400000},
		{PC: 0x400004, IsLoad: true, Addr: 0x10000000, UseDist: 1},
		{PC: 0x400008, IsStore: true, Addr: 0x10000040},
		{PC: 0x40000C, IsBranch: true, Taken: true},
		{PC: 0x400010, IsBranch: true, Taken: false},
		{PC: 0x400014, IsLoad: true, Addr: 0xFFFFFFFC, UseDist: 3},
	}
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	n, err := Write(&buf, &SliceStream{Insts: sample()})
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Fatalf("wrote %d records", n)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, r); !reflect.DeepEqual(got, sample()) {
		t.Fatalf("replayed %+v, want %+v", got, sample())
	}
	if r.Err() != nil {
		t.Errorf("unexpected error: %v", r.Err())
	}
}

func TestEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Write(&buf, &SliceStream{}); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.NextSlice(1)) != 0 {
		t.Error("empty trace produced a record")
	}
	if r.Err() != nil {
		t.Errorf("empty trace error: %v", r.Err())
	}
}

func TestBadMagicAndVersion(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte{1, 2, 3, 4, 1, 0, 0, 0})); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := NewReader(bytes.NewReader([]byte{0x54, 0x43, 0x44, 0x45, 9, 0, 0, 0})); err == nil {
		t.Error("bad version accepted")
	}
	if _, err := NewReader(bytes.NewReader([]byte{0x54})); err == nil {
		t.Error("short header accepted")
	}
}

func TestTruncationDetected(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Write(&buf, &SliceStream{Insts: sample()}); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Cut mid-record: the reader must flag an error.
	r, err := NewReader(bytes.NewReader(full[:len(full)-9]))
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, r)
	if r.Err() == nil {
		t.Error("mid-record truncation not detected")
	}

	// Cut exactly one record before the trailer: the count mismatch
	// must be flagged.
	r2, err := NewReader(bytes.NewReader(append(append([]byte{}, full[:len(full)-16]...), full[len(full)-4:]...)))
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, r2)
	if r2.Err() == nil {
		t.Error("record-count mismatch not detected")
	}
}

func TestRoundTripLargeGenerated(t *testing.T) {
	// A full generated workload survives the round trip bit-exactly.
	src := &SliceStream{}
	for i := 0; i < 5000; i++ {
		src.Insts = append(src.Insts, Inst{
			PC:      uint32(0x400000 + i*4),
			IsLoad:  i%3 == 0,
			Addr:    uint32(0x10000000 + i*8),
			UseDist: uint8(i % 4),
		})
	}
	var buf bytes.Buffer
	if _, err := Write(&buf, src); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := Count(r); got != 5000 {
		t.Errorf("replayed %d records", got)
	}
	if r.Err() != nil {
		t.Error(r.Err())
	}
}

package trace

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
)

// newTestReader opens data, failing the test on a bad header.
func newTestReader(t *testing.T, data []byte) *Reader {
	t.Helper()
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestReaderWindowsAgree: NextSlice windows of any size, and NewArena's
// drain of a whole file, replay what NextSlice one record at a time
// replays, and end with the same error at the same record, the same
// chunk count and the same count of unadvertised phase bytes — over
// every container kind, whole and damaged: a reserved flag bit deep in
// a v1 file or a v2 chunk, a stray phase byte, and v1 and v2 files cut
// short inside and at the edges of the trailer. The v1 files span
// several of the blocks a v1 read decodes.
func TestReaderWindowsAgree(t *testing.T) {
	const n = 3*v1BlockRecords + 100
	insts := loadInsts(n, false)
	files := map[string][]byte{
		"v1":         writeV1(t, insts),
		"v2-plain":   writeV2(t, insts, V2Options{}),
		"v2-chunk7":  writeV2(t, insts, V2Options{ChunkRecords: 7, Checksums: true, Index: true}),
		"v2-gzip":    writeV2(t, insts, V2Options{Compress: true, ChunkRecords: 1000}),
		"v2-phased":  writeV2(t, loadInsts(n, true), V2Options{Phases: true}),
		"v2-no-tail": writeV2(t, insts, V2Options{ChunkRecords: n}),
	}
	clean := map[string]bool{}
	for name := range files {
		clean[name] = true
	}
	damage := map[string]func(b []byte){
		"v1-flag":    func(b []byte) { b[8+(2*v1BlockRecords+5)*recordBytes+8] |= 0x40 },
		"v1-stray":   func(b []byte) { b[8+(v1BlockRecords-1)*recordBytes+10] = 3 },
		"plain-flag": func(b []byte) { b[v2HeaderBytes+2*4+(DefaultChunkRecords+9)*recordBytes+8] |= 0x80 },
	}
	for name, base := range map[string]string{"v1-flag": "v1", "v1-stray": "v1", "plain-flag": "v2-plain"} {
		b := bytes.Clone(files[base])
		damage[name](b)
		files[name] = b
	}
	// The stray phase byte is counted, and ignored: its record replays
	// with Phase 0.
	if r := newTestReader(t, files["v1-stray"]); !slices.Equal(readAll(t, r), insts) || r.Err() != nil || r.UnadvertisedPhaseBytes() != 1 {
		t.Errorf("v1-stray: %d unadvertised phase bytes, err %v", r.UnadvertisedPhaseBytes(), r.Err())
	}
	for _, base := range []string{"v1", "v2-plain"} {
		for _, cut := range []int{1, 3, 4, 5, 12, 13, 16} {
			files[fmt.Sprintf("%s-cut%d", base, cut)] = files[base][:len(files[base])-cut]
		}
	}
	sizes := []int{5, 7, 100, DefaultChunkRecords - 1, DefaultChunkRecords + 3, n}
	for name, data := range files {
		oracle := newTestReader(t, data)
		want := readWindows(t, oracle, 1, len(data))
		check := func(how string, r *Reader, got []Inst) {
			t.Helper()
			if !slices.Equal(got, want) {
				t.Errorf("%s, %s: read %d records, NextSlice(1) %d", name, how, len(got), len(want))
			}
			if errString(r.Err()) != errString(oracle.Err()) || r.Chunks() != oracle.Chunks() || r.UnadvertisedPhaseBytes() != oracle.UnadvertisedPhaseBytes() {
				t.Errorf("%s, %s: ends with %v after %d chunks, %d stray; NextSlice(1) with %v after %d, %d", name, how,
					r.Err(), r.Chunks(), r.UnadvertisedPhaseBytes(), oracle.Err(), oracle.Chunks(), oracle.UnadvertisedPhaseBytes())
			}
		}
		for _, size := range sizes {
			r := newTestReader(t, data)
			check(fmt.Sprintf("window %d", size), r, readWindows(t, r, size, len(data)))
		}
		r := newTestReader(t, data)
		check("NewArena", r, NewArena(r, 0).insts)
		if clean[name] != (oracle.Err() == nil && len(want) == n) && name != "v1-stray" {
			t.Errorf("%s: read %d records, err %v", name, len(want), oracle.Err())
		}
	}
}

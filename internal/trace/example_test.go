package trace_test

import (
	"bytes"
	"fmt"

	"edcache/internal/trace"
)

// ExampleWriteV2 round-trips a small stream through the v2 container:
// write chunked + compressed, read back streaming.
func ExampleWriteV2() {
	insts := []trace.Inst{
		{PC: 0x40_0000, IsLoad: true, Addr: 0x1000_0000, UseDist: 1},
		{PC: 0x40_0004},
		{PC: 0x40_0008, IsBranch: true, Taken: true},
	}
	var buf bytes.Buffer
	n, err := trace.WriteV2(&buf, &trace.SliceStream{Insts: insts}, trace.V2Options{Compress: true})
	if err != nil {
		panic(err)
	}
	fmt.Printf("wrote %d records\n", n)

	r, err := trace.NewReader(&buf)
	if err != nil {
		panic(err)
	}
	fmt.Printf("format v%d, compressed=%v\n", r.Version(), r.Compressed())
	for w := r.NextSlice(64); len(w) > 0; w = r.NextSlice(64) {
		for _, inst := range w {
			fmt.Printf("pc=%#x load=%v branch=%v\n", inst.PC, inst.IsLoad, inst.IsBranch)
		}
	}
	if r.Err() != nil {
		panic(r.Err())
	}
	// Output:
	// wrote 3 records
	// format v2, compressed=true
	// pc=0x400000 load=true branch=false
	// pc=0x400004 load=false branch=false
	// pc=0x400008 load=false branch=true
}

// ExampleReader_NextSlice drains a trace in windows — the pattern the
// replay loop uses: one call per window instead of one dynamic dispatch
// per instruction. Every window but the last is full, even where it
// spans the file's 4-record chunks.
func ExampleReader_NextSlice() {
	src := make([]trace.Inst, 10)
	for i := range src {
		src[i] = trace.Inst{PC: uint32(0x40_0000 + 4*i)}
	}
	var buf bytes.Buffer
	if _, err := trace.WriteV2(&buf, &trace.SliceStream{Insts: src}, trace.V2Options{ChunkRecords: 4}); err != nil {
		panic(err)
	}
	r, err := trace.NewReader(&buf)
	if err != nil {
		panic(err)
	}
	var windows []int
	for w := r.NextSlice(3); len(w) > 0; w = r.NextSlice(3) {
		windows = append(windows, len(w))
	}
	fmt.Printf("replayed windows of %v\n", windows)
	// Output:
	// replayed windows of [3 3 3 1]
}

// Package trace defines the instruction stream format the processor
// model replays. The paper drives MPSim with MediaBench binaries; this
// reproduction drives the trace-driven core with deterministic synthetic
// streams generated by internal/bench, which carry exactly the
// information the timing and energy models consume: program counters,
// memory operations with addresses, branch behaviour, and the
// load-to-use distance that determines whether an extra cache cycle
// (the EDC pipeline stage) stalls the pipeline.
//
// Streams serialise to a versioned binary container — v1 (flat records)
// and v2 (chunked, optionally gzip-compressed, streamable in constant
// memory) — specified normatively in docs/TRACEFORMAT.md. Write emits
// v1, WriteV2 emits v2, and NewReader replays either transparently.
package trace

// Inst is one dynamic instruction.
type Inst struct {
	PC uint32 // byte address of the instruction

	IsLoad  bool
	IsStore bool
	Addr    uint32 // effective address when IsLoad or IsStore

	// UseDist is the distance (in instructions) from a load to its
	// first consumer; 0 means no nearby consumer. A load with hit
	// latency L stalls the in-order pipeline max(0, L − UseDist)
	// cycles.
	UseDist uint8

	IsBranch bool
	Taken    bool

	// Phase is the execution phase (working-set regime) this
	// instruction belongs to. It never changes replay behaviour — it
	// only segments metrics (cpu.Stats, core.Report) per regime.
	// Phase ids are carried by phase-annotated streams (bench's phased
	// generators, v2 trace files whose stream-flag bit 1 is set) and are
	// 0 everywhere else.
	Phase uint8
}

// Stream produces instructions window by window. Implementations must
// be deterministic for a given construction so experiments are
// repeatable.
type Stream interface {
	// NextSlice returns the next window of exactly min(max, remaining)
	// instructions, advancing the stream past them; an empty window
	// means the stream is exhausted. The window is a read-only view
	// that stays valid only until the next call. Windows span whatever
	// internal storage boundaries the source has (v2 chunks, decode
	// buffers), so a consumer's window size alone fixes its grain.
	NextSlice(max int) []Inst
	// HasPhases reports whether the stream's instructions may carry
	// non-zero phase ids. cpu's replay lane, which counts metrics per
	// phase behind cpu.RunMulti and core.RunGroup, checks it once up
	// front, so unannotated streams replay with no phase bookkeeping.
	HasPhases() bool
}

// SliceBatcher is Stream under its former name, which edbench's probe
// still spells.
type SliceBatcher = Stream

// SliceStream replays a fixed slice (used in tests).
type SliceStream struct {
	Insts []Inst
	pos   int
}

// NextSlice implements Stream with a zero-copy view of the backing
// slice, capped at its length.
func (s *SliceStream) NextSlice(max int) []Inst {
	n := min(max, len(s.Insts)-s.pos)
	out := s.Insts[s.pos : s.pos+n : s.pos+n]
	s.pos += n
	return out
}

// Reset rewinds the stream.
func (s *SliceStream) Reset() { s.pos = 0 }

// HasPhases implements Stream by scanning the slice (tests use
// SliceStream; the scan keeps them honest without an extra field).
func (s *SliceStream) HasPhases() bool {
	for _, inst := range s.Insts {
		if inst.Phase != 0 {
			return true
		}
	}
	return false
}

// Count drains a stream and returns the instruction count (test helper).
func Count(s Stream) int {
	n := 0
	for w := s.NextSlice(DefaultChunkRecords); len(w) > 0; w = s.NextSlice(DefaultChunkRecords) {
		n += len(w)
	}
	return n
}

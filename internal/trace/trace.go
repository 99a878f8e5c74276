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

// Stream produces instructions one at a time. Implementations must be
// deterministic for a given construction so experiments are repeatable.
type Stream interface {
	// Next returns the next instruction; ok is false when the stream is
	// exhausted.
	Next() (inst Inst, ok bool)
}

// BatchStream is an optional Stream extension for bulk production: a
// single NextBatch call replaces len(buf) interface dispatches, which
// is what makes the cpu package's chunked replay fast path worthwhile.
// Implementations fill buf from the front and return how many
// instructions were produced; 0 means the stream is exhausted. Batched
// and per-instruction reads may be interleaved and must observe the
// same underlying sequence.
type BatchStream interface {
	Stream
	NextBatch(buf []Inst) int
}

// SliceBatcher is an optional BatchStream extension for zero-copy bulk
// replay: NextSlice returns a view of up to max consecutive
// instructions straight out of the stream's backing storage, advancing
// the stream past them; nil/empty means exhausted. Callers MUST treat
// the returned slice as read-only and must not retain it across calls.
// Only streams whose instructions already sit in memory (arena
// cursors, slice streams) can offer this; consumers fall back to
// NextBatch otherwise.
type SliceBatcher interface {
	BatchStream
	NextSlice(max int) []Inst
}

// PhaseAnnotated is an optional Stream extension: HasPhases reports
// whether the stream's instructions may carry non-zero phase ids.
// Consumers that segment metrics per phase (cpu.Run) check it once up
// front, so unannotated streams replay on the exact unsegmented fast
// path with no per-instruction phase bookkeeping.
type PhaseAnnotated interface {
	HasPhases() bool
}

// HasPhases reports whether s declares phase annotations (implements
// PhaseAnnotated and answers true).
func HasPhases(s Stream) bool {
	pa, ok := s.(PhaseAnnotated)
	return ok && pa.HasPhases()
}

// Fill pulls up to len(buf) instructions from s into buf, taking the
// bulk path when s implements BatchStream. It returns how many
// instructions were produced; 0 means the stream is exhausted.
// Serialisation and replay loops share it.
func Fill(s Stream, buf []Inst) int {
	if b, ok := s.(BatchStream); ok {
		return b.NextBatch(buf)
	}
	return fillFromNext(s.Next, buf)
}

// fillFromNext is the scalar fallback of Fill, shared with BatchStream
// implementations whose underlying production is per-instruction.
func fillFromNext(next func() (Inst, bool), buf []Inst) int {
	n := 0
	for n < len(buf) {
		inst, ok := next()
		if !ok {
			break
		}
		buf[n] = inst
		n++
	}
	return n
}

// SliceStream replays a fixed slice (used in tests).
type SliceStream struct {
	Insts []Inst
	pos   int
}

// Next implements Stream.
func (s *SliceStream) Next() (Inst, bool) {
	if s.pos >= len(s.Insts) {
		return Inst{}, false
	}
	i := s.Insts[s.pos]
	s.pos++
	return i, true
}

// NextBatch implements BatchStream.
func (s *SliceStream) NextBatch(buf []Inst) int {
	n := copy(buf, s.Insts[s.pos:])
	s.pos += n
	return n
}

// NextSlice implements SliceBatcher (zero-copy view of the backing
// slice).
func (s *SliceStream) NextSlice(max int) []Inst {
	n := len(s.Insts) - s.pos
	if n > max {
		n = max
	}
	out := s.Insts[s.pos : s.pos+n]
	s.pos += n
	return out
}

// Reset rewinds the stream.
func (s *SliceStream) Reset() { s.pos = 0 }

// HasPhases implements PhaseAnnotated by scanning the slice (tests use
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
	for {
		if _, ok := s.Next(); !ok {
			return n
		}
		n++
	}
}

package trace

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// Slab is the replay-many contract shared by the materialized Arena
// and the mmap-backed MapArena: an immutable instruction sequence that
// hands out any number of independent replay cursors.
// core.RunGroupArena and the experiments layer run against Slab, so
// the two arena kinds are interchangeable behind OpenSlab's size
// threshold.
type Slab interface {
	// Len returns the slab's instruction count.
	Len() int
	// HasPhases reports whether the slab carries phase annotations.
	HasPhases() bool
	// NewCursor returns a fresh replay over the slab from the first
	// instruction. Cursors are independent; any number may replay
	// concurrently.
	NewCursor() Stream
}

// Arena is an immutable, fully materialized instruction slab: the
// decode-once half of the decode-once/replay-many workflow. A slab is
// built exactly once — drained from a generator Stream (NewArena) or
// decoded once from a serialised v1/v2 trace file, gzip chunks included
// (LoadArenaFile) — and then hands out any number of cheap Cursor values
// that replay it concurrently. Every sweep grid point that used to
// regenerate its workload (re-running the generator RNG) or re-decode
// its trace file instead replays the shared slab, which is what turns
// an N-point sweep's N generations into one.
//
// An Arena is immutable after construction and safe for concurrent use
// by any number of cursors; it carries the stream's phase-annotation
// bit so arena-backed replay takes exactly the code path
// (phase-segmented or not) the originating stream would have, making
// cpu.Stats and core.Report bit-identical to generator-backed runs —
// the determinism contract the experiment engine relies on.
type Arena struct {
	insts  []Inst
	phased bool
}

// arenaChunk is the window NewArena drains its source with.
const arenaChunk = 8192

// filler is the fast path of a Stream that computes its records rather
// than decoding them (bench's generators): Fill writes the next
// min(len(dst), remaining) records straight into dst and returns how
// many it wrote. NewArena checks for it as io.Copy checks for an
// io.WriterTo.
type filler interface {
	Fill(dst []Inst) int
}

// NewArena materializes the whole stream into a slab; n is the expected
// length (0 if unknown), so an exact n makes the slab one allocation.
// A stream that can fill writes its first n records straight into the
// slab, with no window buffer and no window copy; decoded streams, and
// whatever a filler holds beyond n, are drained window by window.
// Phase annotation is inherited, so cursors replay as the stream would.
func NewArena(s Stream, n int) *Arena {
	insts := make([]Inst, 0, n)
	if f, ok := s.(filler); ok {
		insts = insts[:f.Fill(insts[:n])]
	}
	for {
		w := s.NextSlice(arenaChunk)
		if len(w) == 0 {
			break
		}
		if cap(insts)-len(insts) < len(w) {
			grown := make([]Inst, len(insts), 2*cap(insts)+arenaChunk)
			copy(grown, insts)
			insts = grown
		}
		insts = append(insts, w...)
	}
	// Shrink to fit: arenas live for a whole run (the caches retain
	// them), so excess capacity from the doubling loop (up to ~2x) or an
	// overlong hint would otherwise be pinned alongside every slab. One
	// copy bounds the slab at exactly 16 B/instruction.
	if cap(insts) > len(insts) {
		exact := make([]Inst, len(insts))
		copy(exact, insts)
		insts = exact
	}
	return &Arena{insts: insts, phased: s.HasPhases()}
}

// loadArena decodes a serialised trace (either container version,
// compressed or not) into a slab in one pass, validating it end to end
// — trailer count, reserved bits, chunk CRCs, index, gzip checksum —
// exactly as streaming replay would. n is the slab size hint NewArena
// takes. Phase annotation follows the file's stream-flag bit 1.
func loadArena(r io.Reader, n int) (*Arena, error) {
	rd, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	a := NewArena(rd, n)
	if err := rd.Err(); err != nil {
		return nil, err
	}
	return a, nil
}

// LoadArenaFile is loadArena over a file path. A regular file's slab is
// sized once, up front, from the record total its container declares
// (declaredRecords).
func LoadArenaFile(path string) (*Arena, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	n := 0
	if st, err := f.Stat(); err == nil && st.Mode().IsRegular() {
		n = declaredRecords(f, st.Size())
	}
	a, err := loadArena(f, n)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return a, nil
}

// declaredRecords peeks the record total a size-byte container
// declares, without validating it: a v1 file's size implies it, and a
// v2 file's trailer holds it — the last 8 bytes, or for an indexed file
// the 8 bytes before the index its footer points at. It is only a size
// hint, since the Reader then validates everything the peek read, so it
// is clamped to the records size bytes can hold: a lying trailer cannot
// make the slab outgrow the file. Gzip bodies, whose trailer is not on
// disk, and unreadable containers yield 0.
func declaredRecords(f io.ReaderAt, size int64) int {
	h, err := readHeader(io.NewSectionReader(f, 0, size))
	if err != nil || h.compressed {
		return 0
	}
	if h.version == traceVersionV1 {
		return int((size - 12) / recordBytes) // the 8-byte header and 4-byte trailer
	}
	trailer := size - 8
	if h.indexed {
		var fb [indexFooterBytes]byte
		if _, err := f.ReadAt(fb[:], size-indexFooterBytes); err != nil {
			return 0
		}
		_, indexOff, err := getIndexFooter(fb[:])
		if err != nil {
			return 0
		}
		trailer = indexOff - 8
	}
	var tb [8]byte
	if _, err := f.ReadAt(tb[:], trailer); err != nil {
		return 0
	}
	return int(min(binary.LittleEndian.Uint64(tb[:]), uint64(size/recordBytes)))
}

// DefaultMapThreshold is the file size at which OpenSlab switches from
// materialized slabs (16 B/record of heap) to mmap-backed arenas
// (12 B/record of page cache, decoded on cursor read): 64 MiB, past
// which duplicate materialisation starts to matter more than the
// decode-on-read cost.
const DefaultMapThreshold = 64 << 20

// OpenSlab opens a trace file as a replayable Slab, choosing the
// representation by file size: files of mapThreshold bytes or more are
// memory-mapped in place (MapArena), smaller ones are decoded once
// into a materialized slab (Arena). Files that cannot be mapped — gzip
// bodies have no addressable records — fall back to slab loading
// whatever their size. mapThreshold <= 0 means DefaultMapThreshold;
// use 1 to force mapping, or math.MaxInt64 to effectively disable it.
func OpenSlab(path string, mapThreshold int64) (Slab, error) {
	if mapThreshold <= 0 {
		mapThreshold = DefaultMapThreshold
	}
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if st.Size() >= mapThreshold {
		ma, err := OpenMapArena(path)
		if err == nil {
			return ma, nil
		}
		if !isUnmappable(err) {
			return nil, err
		}
	}
	return LoadArenaFile(path)
}

// Len returns the slab's instruction count.
func (a *Arena) Len() int { return len(a.insts) }

// HasPhases reports whether the slab carries phase annotations (and so
// whether its cursors advertise them).
func (a *Arena) HasPhases() bool { return a.phased }

// Cursor returns a fresh replay over the slab, starting at the first
// instruction. Cursors are cheap (two words of state over the shared
// slab) and independent: any number may replay concurrently, each at
// its own position.
func (a *Arena) Cursor() *Cursor {
	return &Cursor{insts: a.insts, phased: a.phased}
}

// NewCursor implements Slab.
func (a *Arena) NewCursor() Stream { return a.Cursor() }

// Cursor is one replay position over an Arena's shared slab. The zero
// value is an empty stream; use Arena.Cursor. A Cursor must not be
// shared between goroutines (take one per replay instead — that is the
// point of the arena).
type Cursor struct {
	insts  []Inst
	pos    int
	phased bool
}

// NextSlice implements Stream: a read-only window straight into the
// shared slab — the zero-copy replay path. Its capacity ends with it,
// so an append to the window cannot overwrite the records after it.
func (c *Cursor) NextSlice(max int) []Inst {
	n := min(max, len(c.insts)-c.pos)
	s := c.insts[c.pos : c.pos+n : c.pos+n]
	c.pos += n
	return s
}

// HasPhases implements Stream.
func (c *Cursor) HasPhases() bool { return c.phased }

// Reset rewinds the cursor to the start of the slab.
func (c *Cursor) Reset() { c.pos = 0 }

package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
)

// MapArena is the mmap-backed counterpart of Arena: instead of
// materialising a 16 B/record slab it maps the trace file's validated
// on-disk records (12 B each) and decodes them on cursor read, chunk
// windows at a time. OpenMapArena validates the whole mapping once by
// streaming it through a Reader — header, chunk framing, chunk CRCs,
// reserved record flag bits, trailer and index — so cursors replay a
// proven-clean byte range with an infallible decode and the exact
// Cursor/SliceBatcher contract slab arenas offer. The records stay in
// the page cache, shared between arenas, cursors and processes, which
// is what makes very large traces replayable without duplicating them
// on the heap. A MapArena is immutable and safe for any number of
// concurrent cursors; Close unmaps it.
type MapArena struct {
	data   []byte // the whole mapped (or, on fallback, read) file
	chunks []mapChunk
	n      int
	phased bool

	unmap func() error // nil once closed or when nothing to release
}

// mapChunk locates one run of consecutive records inside the mapped
// bytes.
type mapChunk struct {
	off   int // byte offset of the first record in data
	count int // records in the run
	start int // cumulative record index of the run's first record
}

// OpenMapArena maps a trace file for in-place replay. The mapped bytes
// are validated by the streaming Reader before the arena is returned,
// so a file fails here exactly as it fails streaming replay, with the
// same region sentinels. Only containers whose record bytes are
// addressable on disk are mappable: v1 and uncompressed v2 qualify,
// gzip bodies are rejected with ErrNotMappable (use LoadArenaFile or
// OpenSlab, which fall back to slab decoding).
func OpenMapArena(path string) (*MapArena, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if !st.Mode().IsRegular() {
		return nil, fmt.Errorf("%s: %w: not a regular file", path, ErrNotMappable)
	}
	data, unmap, err := mapFile(f, st.Size())
	if err != nil {
		return nil, fmt.Errorf("%s: %w: %v", path, ErrNotMappable, err)
	}
	a := &MapArena{data: data, unmap: unmap}
	rd, err := NewReader(bytes.NewReader(data))
	if err == nil && rd.Compressed() {
		err = fmt.Errorf("%w: gzip body has no addressable records", ErrNotMappable)
	}
	if err == nil {
		rd.onChunk = func(recOff int64, n int) {
			a.chunks = append(a.chunks, mapChunk{off: int(recOff), count: n, start: a.n})
			a.n += n
		}
		buf := make([]Inst, DefaultChunkRecords)
		for rd.NextBatch(buf) > 0 {
		}
		err = rd.Err()
	}
	if err != nil {
		a.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	a.phased = rd.HasPhases()
	return a, nil
}

// Len implements Slab.
func (a *MapArena) Len() int { return a.n }

// HasPhases implements Slab.
func (a *MapArena) HasPhases() bool { return a.phased }

// NewCursor implements Slab: a fresh replay over the mapped records
// from the first instruction. Cursors are independent and safe to use
// concurrently (each decodes into its own buffer); a cursor must not
// outlive the arena's Close.
func (a *MapArena) NewCursor() SliceBatcher {
	return &MapCursor{a: a, buf: make([]Inst, mapCursorBatch)}
}

// Close unmaps the file. Cursors must not be used afterwards. Close is
// idempotent.
func (a *MapArena) Close() error {
	if a.unmap == nil {
		return nil
	}
	u := a.unmap
	a.unmap = nil
	a.data = nil
	a.chunks = nil
	return u()
}

// mapCursorBatch is the per-cursor decode window: one NextSlice's worth
// of records decoded out of the mapped bytes. It matches the cpu
// package's replay batch so the common case is exactly one decode per
// NextSlice call.
const mapCursorBatch = 1024

// MapCursor is one replay position over a MapArena. It decodes records
// out of the mapped bytes into a private buffer window by window;
// NextSlice returns views of that buffer (read-only, not retained
// across calls, per the SliceBatcher contract). The decode cannot fail:
// the arena validated every record at open time. A MapCursor must not
// be shared between goroutines.
type MapCursor struct {
	a   *MapArena
	pos int // next record index, arena-wide

	chunk int // index into a.chunks of the chunk holding pos
	buf   []Inst
}

// decodeInto decodes up to max records starting at c.pos into dst,
// returning how many were produced. dst must hold max records.
func (c *MapCursor) decodeInto(dst []Inst, max int) int {
	n := 0
	for n < max && c.pos < c.a.n {
		// Advance to the chunk containing pos (chunks are in order and
		// replay is forward-only, so this is amortised O(1)).
		for c.pos >= c.a.chunks[c.chunk].start+c.a.chunks[c.chunk].count {
			c.chunk++
		}
		ch := c.a.chunks[c.chunk]
		i := c.pos - ch.start
		take := ch.count - i
		if take > max-n {
			take = max - n
		}
		recs := c.a.data[ch.off+i*recordBytes : ch.off+(i+take)*recordBytes]
		out := dst[n : n+take]
		// Inline decode of the validated records: the open-time
		// streaming pass proved every flag byte, so no error path — this loop is the
		// replay hot path that keeps mmap replay near slab replay.
		for k := range out {
			rec := recs[k*recordBytes : k*recordBytes+recordBytes : k*recordBytes+recordBytes]
			flags := rec[8]
			out[k] = Inst{
				PC:       binary.LittleEndian.Uint32(rec[0:4]),
				Addr:     binary.LittleEndian.Uint32(rec[4:8]),
				IsLoad:   flags&flagLoad != 0,
				IsStore:  flags&flagStore != 0,
				IsBranch: flags&flagBranch != 0,
				Taken:    flags&flagTaken != 0,
				UseDist:  rec[9],
			}
		}
		if c.a.phased {
			for k := range out {
				out[k].Phase = recs[k*recordBytes+10]
			}
		}
		n += take
		c.pos += take
	}
	return n
}

// Next implements Stream.
func (c *MapCursor) Next() (Inst, bool) {
	if c.pos >= c.a.n {
		return Inst{}, false
	}
	var one [1]Inst
	c.decodeInto(one[:], 1)
	return one[0], true
}

// NextBatch implements BatchStream.
func (c *MapCursor) NextBatch(buf []Inst) int {
	return c.decodeInto(buf, len(buf))
}

// NextSlice implements SliceBatcher: records are decoded into the
// cursor's private window and a view of it is returned.
func (c *MapCursor) NextSlice(max int) []Inst {
	if max > len(c.buf) {
		c.buf = make([]Inst, max)
	}
	n := c.decodeInto(c.buf, max)
	return c.buf[:n]
}

// HasPhases implements PhaseAnnotated.
func (c *MapCursor) HasPhases() bool { return c.a.phased }

// Reset rewinds the cursor to the start of the arena.
func (c *MapCursor) Reset() { c.pos, c.chunk = 0, 0 }

// isUnmappable classifies errors that mean "valid container, cannot
// map" — OpenSlab falls back to slab loading on them rather than
// failing.
func isUnmappable(err error) bool {
	return errors.Is(err, ErrNotMappable)
}

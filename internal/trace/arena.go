package trace

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
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
	// concurrently. The returned stream implements SliceBatcher (and
	// therefore BatchStream/Stream semantics via NextSlice) plus
	// PhaseAnnotated.
	NewCursor() SliceBatcher
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
// bit so arena-backed replay takes exactly the code paths (batched,
// phase-segmented or not) the originating stream would have, making
// cpu.Stats and core.Report bit-identical to generator-backed runs —
// the determinism contract the experiment engine relies on.
type Arena struct {
	insts  []Inst
	phased bool
}

// arenaChunk is the granularity NewArena drains its source with; one
// Fill call per chunk keeps the bulk path of batch-capable sources.
const arenaChunk = 8192

// NewArena materializes the whole stream into a slab. The source is
// drained via its batch fast path when it has one; phase annotation is
// inherited from the stream (trace.PhaseAnnotated), so cursors replay
// exactly as the source stream would.
func NewArena(s Stream) *Arena {
	var insts []Inst
	for {
		if cap(insts)-len(insts) < arenaChunk {
			grown := make([]Inst, len(insts), 2*cap(insts)+arenaChunk)
			copy(grown, insts)
			insts = grown
		}
		n := Fill(s, insts[len(insts):len(insts)+arenaChunk])
		if n == 0 {
			break
		}
		insts = insts[:len(insts)+n]
	}
	// Shrink to fit: arenas live for a whole run (the caches retain
	// them), so the doubling loop's excess capacity — up to ~2x — would
	// otherwise be pinned alongside every slab. One copy bounds the
	// slab at exactly 16 B/instruction.
	if cap(insts) > len(insts) {
		exact := make([]Inst, len(insts))
		copy(exact, insts)
		insts = exact
	}
	return &Arena{insts: insts, phased: HasPhases(s)}
}

// loadArena decodes a serialised trace (either container version,
// compressed or not) into a slab in one pass, validating it end to end
// — trailer count, reserved bits, gzip checksum — exactly as streaming
// replay would. Phase annotation follows the file's stream-flag bit 1.
func loadArena(r io.Reader) (*Arena, error) {
	rd, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	a := NewArena(rd)
	if err := rd.Err(); err != nil {
		return nil, err
	}
	a.phased = rd.HasPhases()
	return a, nil
}

// LoadArenaFile is loadArena over a file path, with a fast path for
// indexed containers (v2 stream-flag bit 3): the validated chunk index
// gives every chunk's file offset and record count, so the slab is
// sized exactly up front and the chunks are decoded in parallel across
// a worker pool into disjoint slab ranges. Unindexed files (v1,
// pre-index v2, gzip) take the sequential streaming decode.
func LoadArenaFile(path string) (*Arena, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if st, err := f.Stat(); err == nil && st.Mode().IsRegular() {
		meta, err := readFileMeta(f, st.Size())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if meta.indexed {
			a, err := loadArenaIndexed(f, meta)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			return a, nil
		}
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	a, err := loadArena(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return a, nil
}

// loadArenaIndexed decodes an indexed v2 container into a slab chunk by
// chunk across a worker pool. The index (validated by readFileMeta)
// gives each chunk's slab range via a prefix sum over the entry counts,
// so workers write disjoint ranges with no synchronisation beyond the
// work counter. Every chunk frame goes through decodeChunk, and the
// entry it implies must equal the index entry exactly, as in the
// streaming reader's index cross-check.
func loadArenaIndexed(f *os.File, meta *fileMeta) (*Arena, error) {
	insts := make([]Inst, meta.total)
	starts := make([]int, len(meta.entries)+1)
	for i, e := range meta.entries {
		starts[i+1] = starts[i] + e.Count
	}
	// decode reads chunk i's frame into raw (grown as needed) and
	// decodes it into its slab range.
	decode := func(i int, raw []byte) ([]byte, error) {
		e := meta.entries[i]
		if n := meta.frameBytes(e.Count); cap(raw) < n {
			raw = make([]byte, n)
		} else {
			raw = raw[:n]
		}
		if _, err := f.ReadAt(raw, e.Offset); err != nil {
			return raw, fmt.Errorf("trace: %w: chunk %d at offset %d: %v", ErrTruncated, i, e.Offset, err)
		}
		got, _, err := meta.decodeChunk(raw, insts[starts[i]:starts[i+1]])
		if err != nil {
			return raw, fmt.Errorf("%w (chunk %d)", err, i)
		}
		if got.Offset = e.Offset; got != e {
			return raw, fmt.Errorf("trace: %w: entry %d is %+v, chunk holds %+v", ErrIndex, i, e, got)
		}
		return raw, nil
	}
	var (
		next     atomic.Int64 // next chunk to claim
		failed   atomic.Bool  // set once any worker fails, stops the others
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	for w := min(runtime.GOMAXPROCS(0), len(meta.entries)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var raw []byte
			for {
				i := int(next.Add(1)) - 1
				if i >= len(meta.entries) || failed.Load() {
					return
				}
				var err error
				if raw, err = decode(i, raw); err != nil {
					failed.Store(true)
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return &Arena{insts: insts, phased: meta.phases}, nil
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
// its own position. The returned stream implements BatchStream and
// PhaseAnnotated, so replay and serialisation take their bulk paths.
func (a *Arena) Cursor() *Cursor {
	return &Cursor{insts: a.insts, phased: a.phased}
}

// NewCursor implements Slab.
func (a *Arena) NewCursor() SliceBatcher { return a.Cursor() }

// Cursor is one replay position over an Arena's shared slab. The zero
// value is an empty stream; use Arena.Cursor. A Cursor must not be
// shared between goroutines (take one per replay instead — that is the
// point of the arena).
type Cursor struct {
	insts  []Inst
	pos    int
	phased bool
}

// Next implements Stream.
func (c *Cursor) Next() (Inst, bool) {
	if c.pos >= len(c.insts) {
		return Inst{}, false
	}
	inst := c.insts[c.pos]
	c.pos++
	return inst, true
}

// NextBatch implements BatchStream: a bulk copy out of the shared slab,
// no per-instruction work at all.
func (c *Cursor) NextBatch(buf []Inst) int {
	n := copy(buf, c.insts[c.pos:])
	c.pos += n
	return n
}

// NextSlice implements SliceBatcher: a read-only window straight into
// the shared slab — the zero-copy replay path.
func (c *Cursor) NextSlice(max int) []Inst {
	n := len(c.insts) - c.pos
	if n > max {
		n = max
	}
	s := c.insts[c.pos : c.pos+n]
	c.pos += n
	return s
}

// HasPhases implements PhaseAnnotated.
func (c *Cursor) HasPhases() bool { return c.phased }

// Reset rewinds the cursor to the start of the slab.
func (c *Cursor) Reset() { c.pos = 0 }

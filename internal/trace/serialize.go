package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary trace formats. The layouts are specified normatively in
// docs/TRACEFORMAT.md; this file implements the common record codec and
// the v1 (flat) container, serialize_v2.go the v2 (chunked, optionally
// compressed) container. The formats exist so traces can be generated
// once (cmd/tracegen), archived, and replayed byte-identically against
// any configuration — the workflow the paper's MPSim + binary setup
// implies.
const (
	traceMagic     = 0x45444354 // "TCDE" on disk (little-endian "EDCT")
	traceVersionV1 = 1
	traceVersionV2 = 2

	recordBytes = 12
)

// Record flags. Bits 4-7 are reserved and must be zero; readers reject
// records that set them (a set reserved bit means a corrupt file or a
// format revision this reader does not understand).
const (
	flagLoad   = 1 << 0
	flagStore  = 1 << 1
	flagBranch = 1 << 2
	flagTaken  = 1 << 3

	flagKnown = flagLoad | flagStore | flagBranch | flagTaken
)

// maxV1Records is the largest stream a v1 file can carry: the v1
// trailer stores the record count as a uint32. It is a variable only so
// the overflow path is testable without writing 2^32 records.
var maxV1Records uint64 = math.MaxUint32

// encodeRecord serialises one instruction into a 12-byte record. Byte
// 10 carries the phase id only when the stream advertises phases (v2
// stream-flag bit 1); otherwise it stays reserved-zero, which is how
// the v1 writer (v1 is frozen) and phase-less v2 writers discard phase
// annotations.
func encodeRecord(rec []byte, inst Inst, phases bool) {
	binary.LittleEndian.PutUint32(rec[0:4], inst.PC)
	binary.LittleEndian.PutUint32(rec[4:8], inst.Addr)
	var flags byte
	if inst.IsLoad {
		flags |= flagLoad
	}
	if inst.IsStore {
		flags |= flagStore
	}
	if inst.IsBranch {
		flags |= flagBranch
	}
	if inst.Taken {
		flags |= flagTaken
	}
	rec[8] = flags
	rec[9] = inst.UseDist
	rec[10], rec[11] = 0, 0
	if phases {
		rec[10] = inst.Phase
	}
}

// decodeRecords is the one record decoder: it deserialises the first
// len(dst) 12-byte records of recs into dst and returns the OR of their
// flag bytes. It has no error path, so it is the hot loop of every read
// path; a caller that has not already validated the records rejects
// them when the returned flags carry a reserved bit (errRecordFlags).
// Byte 10 is decoded as the phase id only when the stream advertises
// phases; in phase-less streams it is reserved and ignored, per the
// compatibility rules of docs/TRACEFORMAT.md.
func decodeRecords(dst []Inst, recs []byte, phases bool) byte {
	recs = recs[:len(dst)*recordBytes]
	var or byte
	for k := range dst {
		rec := recs[k*recordBytes : k*recordBytes+recordBytes : k*recordBytes+recordBytes]
		flags := rec[8]
		or |= flags
		dst[k] = Inst{
			PC:       binary.LittleEndian.Uint32(rec[0:4]),
			Addr:     binary.LittleEndian.Uint32(rec[4:8]),
			IsLoad:   flags&flagLoad != 0,
			IsStore:  flags&flagStore != 0,
			IsBranch: flags&flagBranch != 0,
			Taken:    flags&flagTaken != 0,
			UseDist:  rec[9],
		}
	}
	if phases {
		for k := range dst {
			dst[k].Phase = recs[k*recordBytes+10]
		}
	}
	return or
}

// errRecordFlags reports a record whose flag byte sets reserved bits.
func errRecordFlags(flags byte) error {
	return fmt.Errorf("trace: %w: unknown record flag bits %#02x", ErrRecord, flags&^byte(flagKnown))
}

// Write serialises the full stream to w in format v1 (flat records, a
// 4-byte count trailer) and returns the record count. v1 is kept for
// compatibility with existing archives; new traces should use WriteV2,
// which streams in bounded memory on both ends and compresses. Streams
// with 2^32 or more records do not fit the v1 trailer and are rejected
// with an error (use WriteV2). v1 is frozen: phase annotations are
// discarded (record byte 10 stays reserved-zero) — phase-aware traces
// need WriteV2 with V2Options.Phases.
func Write(w io.Writer, s Stream) (int, error) {
	bw := bufio.NewWriter(w)
	// The record count lives in a 4-byte *trailer* rather than the
	// header so Write can stream in a single pass over a plain
	// io.Writer (streams don't know their length up front).
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], traceMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], traceVersionV1)
	if _, err := bw.Write(hdr[:]); err != nil {
		return 0, err
	}
	var count uint64
	var rec [recordBytes]byte
	for w := s.NextSlice(DefaultChunkRecords); len(w) > 0; w = s.NextSlice(DefaultChunkRecords) {
		for _, inst := range w {
			if count >= maxV1Records {
				return int(count), fmt.Errorf("trace: stream exceeds %d records, too long for format v1 (use WriteV2)", maxV1Records)
			}
			encodeRecord(rec[:], inst, false)
			if _, err := bw.Write(rec[:]); err != nil {
				return int(count), err
			}
			count++
		}
	}
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], uint32(count))
	if _, err := bw.Write(trailer[:]); err != nil {
		return int(count), err
	}
	return int(count), bw.Flush()
}

// Reader replays a serialised trace as a Stream. It reads v1 and v2
// files transparently (NewReader sniffs the header version) and never
// materialises the full trace: v1 is decoded record by record, v2 chunk
// by chunk, so multi-million-instruction traces replay in constant
// memory. NextSlice windows span v2 chunk boundaries.
type Reader struct {
	hdr  header
	err  error
	done bool
	read uint64 // records streamed so far, checked against the trailer
	win  []Inst // NextSlice's window when it is not a view of one v2 chunk

	// stray counts records whose reserved phase byte (record byte 10)
	// is non-zero in a stream that does not advertise phases. The spec
	// makes readers ignore reserved bytes, so these records replay with
	// Phase 0; the count lets tools (tracegen -verify) surface the
	// header/record mismatch instead of losing it silently.
	stray uint64

	br  *bufio.Reader     // v1: record source; v2: raw (pre-decompression) source
	rec [recordBytes]byte // v1: the record being read, kept off the heap

	v2 *readerV2 // nil for v1 files

	// onChunk, when set, is handed the file offset of each validated
	// run of records and its length: every v2 chunk as it streams, and
	// a v1 file's whole record array once its trailer checks out. The
	// mmap arena builds its chunk table from it.
	onChunk func(recOff int64, n int)
}

// header is a container's parsed header. The stream-flag and capacity
// fields are zero for v1.
type header struct {
	version    int
	compressed bool // stream-flag bit 0: the body is one gzip stream
	phases     bool // bit 1: record byte 10 is a phase id
	checksums  bool // bit 2: chunks carry a CRC32C
	indexed    bool // bit 3: a chunk index follows the trailer
	chunkCap   int
}

// readHeader is the one parser of the container header: magic and
// version, and for v2 the stream flags and chunk capacity. It consumes
// 8 bytes of a v1 file and 16 of a v2 file.
func readHeader(r io.Reader) (header, error) {
	var b [v2HeaderBytes]byte
	if _, err := io.ReadFull(r, b[:8]); err != nil {
		return header{}, fmt.Errorf("trace: %w: %w: short header: %v", ErrHeader, ErrTruncated, err)
	}
	if m := binary.LittleEndian.Uint32(b[0:4]); m != traceMagic {
		return header{}, fmt.Errorf("trace: %w: bad magic %#x", ErrHeader, m)
	}
	switch v := binary.LittleEndian.Uint32(b[4:8]); v {
	case traceVersionV1:
		return header{version: traceVersionV1}, nil
	case traceVersionV2:
	default:
		return header{}, fmt.Errorf("trace: %w: unsupported version %d", ErrHeader, v)
	}
	if _, err := io.ReadFull(r, b[8:]); err != nil {
		return header{}, fmt.Errorf("trace: %w: %w: short v2 header: %v", ErrHeader, ErrTruncated, err)
	}
	flags := binary.LittleEndian.Uint32(b[8:12])
	if flags&^uint32(v2FlagKnown) != 0 {
		return header{}, fmt.Errorf("trace: %w: unknown v2 stream flag bits %#x", ErrHeader, flags&^uint32(v2FlagKnown))
	}
	if flags&v2FlagGzip != 0 && flags&(v2FlagCRC|v2FlagIndex) != 0 {
		return header{}, fmt.Errorf("trace: %w: stream flags %#x combine gzip with per-chunk CRC/index (reserved combination)", ErrHeader, flags)
	}
	chunkCap := binary.LittleEndian.Uint32(b[12:16])
	if chunkCap < 1 || chunkCap > MaxChunkRecords {
		return header{}, fmt.Errorf("trace: %w: v2 chunk capacity %d outside [1, %d]", ErrHeader, chunkCap, MaxChunkRecords)
	}
	return header{
		version:    traceVersionV2,
		compressed: flags&v2FlagGzip != 0,
		phases:     flags&v2FlagPhases != 0,
		checksums:  flags&v2FlagCRC != 0,
		indexed:    flags&v2FlagIndex != 0,
		chunkCap:   int(chunkCap),
	}, nil
}

// NewReader validates the header and returns a replaying stream for a
// v1 or v2 trace file.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	h, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	rd := &Reader{hdr: h, br: br}
	if h.version == traceVersionV2 {
		if rd.v2, err = newReaderV2(br, h); err != nil {
			return nil, err
		}
	}
	return rd, nil
}

// Version reports the format version of the file being read (1 or 2).
func (r *Reader) Version() int { return r.hdr.version }

// Compressed reports whether the file's body is gzip-compressed (always
// false for v1).
func (r *Reader) Compressed() bool { return r.hdr.compressed }

// HasPhases implements Stream: it reports whether the file
// advertises per-record phase ids (v2 stream-flag bit 1; always false
// for v1 and phase-less v2 files).
func (r *Reader) HasPhases() bool { return r.hdr.phases }

// HasChecksums reports whether the file carries per-chunk CRC32C
// checksums (v2 stream-flag bit 2). Gzip bodies report false here —
// their integrity comes from the deflate stream's own CRC32.
func (r *Reader) HasChecksums() bool { return r.hdr.checksums }

// HasIndex reports whether the file carries a seekable chunk index (v2
// stream-flag bit 3). When true, the streaming reader cross-checks the
// index against the chunks it streamed before declaring the trace
// clean.
func (r *Reader) HasIndex() bool { return r.hdr.indexed }

// Chunks reports how many chunks have been streamed so far (0 for v1
// files, the file's chunk total once the stream finishes cleanly).
func (r *Reader) Chunks() uint64 {
	if r.v2 == nil {
		return 0
	}
	return r.v2.chunks
}

// UnadvertisedPhaseBytes counts the records streamed so far whose
// reserved phase byte was non-zero although the stream does not
// advertise phases. Those records replay with Phase 0 (reserved bytes
// are ignored by spec); a non-zero count means the file was produced by
// a writer that stamped phase ids without setting stream-flag bit 1,
// and tools should report it rather than ignore it silently.
func (r *Reader) UnadvertisedPhaseBytes() uint64 { return r.stray }

// NextSlice implements Stream. A window that lies inside one decoded
// v2 chunk is a view of it; any other window is assembled in the
// Reader's own buffer, across as many chunks as it spans. Either way
// its capacity ends with it. Read failures end the stream early and
// are reported by Err.
func (r *Reader) NextSlice(max int) []Inst {
	win := r.win[:0]
	for len(win) < max && !r.done && r.err == nil {
		if r.v2 == nil {
			if inst, ok := r.nextV1(); ok {
				win = append(win, inst)
			}
			continue
		}
		v2 := r.v2
		if v2.pos == len(v2.chunk) && !r.loadChunk() {
			r.done = true
			break
		}
		end := min(len(v2.chunk), v2.pos+max-len(win))
		run := v2.chunk[v2.pos:end:end]
		v2.pos += len(run)
		r.read += uint64(len(run))
		if len(run) == max {
			return run
		}
		win = append(win, run...)
	}
	r.win = win
	return win[:len(win):len(win)]
}

// nextV1 decodes one flat v1 record. The 12-byte records are
// distinguished from the 4-byte trailer by read length: a full record
// keeps streaming, a short tail ends the trace.
func (r *Reader) nextV1() (Inst, bool) {
	rec := r.rec[:]
	n, err := io.ReadFull(r.br, rec)
	if err != nil {
		r.done = true
		if n == 4 {
			// The 4-byte trailer: validate the record count so a
			// truncated file cannot pass silently.
			if count := binary.LittleEndian.Uint32(rec[0:4]); uint64(count) != r.read {
				r.err = fmt.Errorf("trace: %w: trailer count %d, streamed %d records (truncated file?)", ErrTrailer, count, r.read)
			} else if r.onChunk != nil {
				r.onChunk(8, int(r.read)) // the records follow the 8-byte header
			}
			return Inst{}, false
		}
		if err != io.EOF || n != 0 {
			r.err = fmt.Errorf("trace: %w: truncated record after %d records", ErrTruncated, r.read)
		} else {
			r.err = fmt.Errorf("trace: %w: %w: missing trailer after %d records", ErrTrailer, ErrTruncated, r.read)
		}
		return Inst{}, false
	}
	var inst [1]Inst
	if flags := decodeRecords(inst[:], rec, false); flags&^byte(flagKnown) != 0 {
		r.done = true
		r.err = fmt.Errorf("%w (record %d)", errRecordFlags(flags), r.read)
		return Inst{}, false
	}
	if rec[10] != 0 {
		r.stray++
	}
	r.read++
	return inst[0], true
}

// NextBatch copies the next window into buf and returns its length; it
// is NextSlice under the batch signature edbench's probe still calls.
func (r *Reader) NextBatch(buf []Inst) int { return copy(buf, r.NextSlice(len(buf))) }

// Err reports a non-EOF read failure encountered during streaming.
func (r *Reader) Err() error { return r.err }

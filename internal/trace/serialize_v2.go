package trace

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Format v2 container (see docs/TRACEFORMAT.md for the normative spec):
// a 16-byte self-describing header followed by a body of chunks, where
// the body is optionally one gzip stream. Each chunk is a 4-byte record
// count n > 0 followed by n 12-byte records — and, under stream-flag
// bit 2, a 4-byte CRC32C over the count and records. A count of 0
// terminates the body and is followed by an 8-byte total-record-count
// trailer; under stream-flag bit 3 a seekable chunk index (one entry
// per chunk, an index CRC, and a fixed footer at end-of-file) follows
// the trailer. Chunking bounds both writer and reader memory to one
// chunk, so arbitrarily long traces stream through pipes, sockets and
// compressed files without ever being materialised.
const (
	// v2 header stream-flag bits. Unknown bits are rejected on read.
	// Bit 1 advertises per-record phase ids in record byte 10; readers
	// without phase support reject it loudly rather than replaying a
	// file whose segmentation they would silently drop on re-write.
	// Bits 2 (per-chunk CRC32C) and 3 (seekable chunk index) are the
	// integrity/seekability extensions for uncompressed bodies; both
	// are invalid in combination with bit 0 (a gzip body carries its
	// own CRC32 and its chunks have no addressable file offsets).
	v2FlagGzip   = 1 << 0
	v2FlagPhases = 1 << 1
	v2FlagCRC    = 1 << 2
	v2FlagIndex  = 1 << 3
	v2FlagKnown  = v2FlagGzip | v2FlagPhases | v2FlagCRC | v2FlagIndex

	// DefaultChunkRecords is the writer's default chunk granularity:
	// big enough to amortise per-chunk overhead and give gzip useful
	// windows, small enough that a chunk is ~96 KB of buffer.
	DefaultChunkRecords = 8192

	// MaxChunkRecords bounds the chunk size a reader will allocate for,
	// so a corrupt or hostile header cannot demand an absurd buffer.
	MaxChunkRecords = 1 << 20

	// chunkCRCBytes is the per-chunk checksum width under stream-flag
	// bit 2.
	chunkCRCBytes = 4

	// v2HeaderBytes is the combined common + v2 header size; the first
	// chunk's count field sits at this file offset.
	v2HeaderBytes = 16

	// v2EndBytes is the end marker (uint32 0) plus the uint64 trailer.
	v2EndBytes = 12
)

// castagnoli is the CRC32C polynomial table shared by the chunk and
// index checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// V2Options configures WriteV2 and NewV2Writer.
type V2Options struct {
	// Compress gzips the body (header stays plain so Version/flags are
	// readable without decompression). Incompatible with Checksums and
	// Index: the gzip stream carries its own end-to-end CRC32, and its
	// chunks have no file offsets an index could address.
	Compress bool
	// ChunkRecords is the number of records per chunk; 0 means
	// DefaultChunkRecords.
	ChunkRecords int
	// Phases stamps each record's phase id into record byte 10 and
	// sets stream-flag bit 1 so readers know to decode it. Without it
	// phase annotations are discarded (byte 10 stays reserved-zero) and
	// the file reads identically to a pre-phase v2 trace.
	Phases bool
	// Checksums appends a CRC32C to every chunk (stream-flag bit 2), so
	// uncompressed bodies get the end-to-end integrity gzip bodies get
	// from the deflate CRC — at chunk granularity, verifiable by
	// seekable consumers chunk by chunk.
	Checksums bool
	// Index appends a seekable chunk index after the trailer
	// (stream-flag bit 3): per chunk its file offset, record count and
	// phase-id range, plus an index CRC and a fixed footer. It is what
	// lets LoadArenaFile decode chunks in parallel and OpenMapArena
	// validate a mapping without reading the body.
	Index bool
}

func (o V2Options) chunkRecords() (int, error) {
	c := o.ChunkRecords
	if c == 0 {
		c = DefaultChunkRecords
	}
	if c < 1 || c > MaxChunkRecords {
		return 0, fmt.Errorf("trace: chunk size %d outside [1, %d]", c, MaxChunkRecords)
	}
	return c, nil
}

// WriteV2 serialises the full stream to w in format v2 and returns the
// record count. Memory use is bounded by one chunk (plus 16 bytes per
// chunk when an index is requested) regardless of the stream length; if
// s implements BatchStream the chunk buffer is filled in bulk. Unlike
// v1 there is no practical length limit (the trailer is 64-bit).
func WriteV2(w io.Writer, s Stream, o V2Options) (int64, error) {
	vw, err := NewV2Writer(w, o)
	if err != nil {
		return 0, err
	}
	insts := make([]Inst, vw.chunkCap)
	for {
		n := Fill(s, insts)
		if n == 0 {
			break
		}
		if err := vw.Append(insts[:n]...); err != nil {
			return vw.Count(), err
		}
	}
	return vw.Count(), vw.Close()
}

// V2Writer is the push-side counterpart of WriteV2: records are
// appended as they become available instead of being pulled from a
// Stream. Memory use is bounded by one chunk, plus one 16-byte index
// entry per flushed chunk when Index is on. The container is invalid
// until Close writes the end marker, trailer and (when enabled) index.
type V2Writer struct {
	bw        *bufio.Writer
	body      io.Writer // bw or the gzip layer
	gz        *gzip.Writer
	phases    bool
	checksums bool
	index     bool

	chunkCap int
	raw      []byte // one encoded chunk: 4-byte count + records + CRC room
	n        int    // records pending in raw
	total    int64  // records flushed + pending

	off        int64        // file offset the next chunk frame lands at
	entries    []IndexEntry // one per flushed chunk, when index is on
	pMin, pMax uint8        // phase-id range of the pending chunk

	err    error
	closed bool
}

// NewV2Writer writes the v2 header to w and returns a writer ready to
// Append records.
func NewV2Writer(w io.Writer, o V2Options) (*V2Writer, error) {
	chunkRecs, err := o.chunkRecords()
	if err != nil {
		return nil, err
	}
	if o.Compress && (o.Checksums || o.Index) {
		return nil, fmt.Errorf("trace: %w: per-chunk checksums and the chunk index need an uncompressed body (gzip carries its own CRC and hides chunk offsets)", ErrHeader)
	}
	bw := bufio.NewWriter(w)
	var hdr [v2HeaderBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:4], traceMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], traceVersionV2)
	var flags uint32
	if o.Compress {
		flags |= v2FlagGzip
	}
	if o.Phases {
		flags |= v2FlagPhases
	}
	if o.Checksums {
		flags |= v2FlagCRC
	}
	if o.Index {
		flags |= v2FlagIndex
	}
	binary.LittleEndian.PutUint32(hdr[8:12], flags)
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(chunkRecs))
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, err
	}
	vw := &V2Writer{
		bw:        bw,
		body:      bw,
		phases:    o.Phases,
		checksums: o.Checksums,
		index:     o.Index,
		chunkCap:  chunkRecs,
		raw:       make([]byte, 4+chunkRecs*recordBytes+chunkCRCBytes),
		off:       v2HeaderBytes,
	}
	if o.Compress {
		vw.gz = gzip.NewWriter(bw)
		vw.body = vw.gz
	}
	return vw, nil
}

// Append encodes the instructions into the pending chunk, flushing full
// chunks to the underlying writer. A write failure is sticky: it is
// returned now and by every later Append/Close.
func (vw *V2Writer) Append(insts ...Inst) error {
	if vw.err != nil {
		return vw.err
	}
	if vw.closed {
		return fmt.Errorf("trace: append to closed V2Writer")
	}
	for _, inst := range insts {
		encodeRecord(vw.raw[4+vw.n*recordBytes:], inst, vw.phases)
		if vw.phases {
			if vw.n == 0 {
				vw.pMin, vw.pMax = inst.Phase, inst.Phase
			} else if inst.Phase < vw.pMin {
				vw.pMin = inst.Phase
			} else if inst.Phase > vw.pMax {
				vw.pMax = inst.Phase
			}
		}
		vw.n++
		vw.total++
		if vw.n == vw.chunkCap {
			if err := vw.flushChunk(); err != nil {
				return err
			}
		}
	}
	return nil
}

// flushChunk writes the pending records (if any) as one chunk,
// appending the chunk CRC and recording the index entry when those
// extensions are on.
func (vw *V2Writer) flushChunk() error {
	if vw.n == 0 {
		return nil
	}
	binary.LittleEndian.PutUint32(vw.raw[0:4], uint32(vw.n))
	frame := vw.raw[:4+vw.n*recordBytes]
	if vw.checksums {
		crc := crc32.Checksum(frame, castagnoli)
		binary.LittleEndian.PutUint32(vw.raw[len(frame):len(frame)+chunkCRCBytes], crc)
		frame = vw.raw[:len(frame)+chunkCRCBytes]
	}
	if _, err := vw.body.Write(frame); err != nil {
		vw.err = err
		return err
	}
	if vw.index {
		e := IndexEntry{Offset: vw.off, Count: vw.n}
		if vw.phases {
			e.MinPhase, e.MaxPhase = vw.pMin, vw.pMax
		}
		vw.entries = append(vw.entries, e)
	}
	vw.off += int64(len(frame))
	vw.n = 0
	return nil
}

// Count returns the number of records appended so far.
func (vw *V2Writer) Count() int64 { return vw.total }

// Close flushes the pending chunk, writes the end marker, the 64-bit
// record-count trailer and (when enabled) the chunk index, and flushes
// every buffering layer. Close is idempotent; later calls return the
// first outcome.
func (vw *V2Writer) Close() error {
	if vw.closed || vw.err != nil {
		return vw.err
	}
	vw.closed = true
	if err := vw.flushChunk(); err != nil {
		return err
	}
	var end [v2EndBytes]byte // 4-byte zero count + 8-byte total trailer
	binary.LittleEndian.PutUint64(end[4:12], uint64(vw.total))
	if _, err := vw.body.Write(end[:]); err != nil {
		vw.err = err
		return err
	}
	vw.off += v2EndBytes
	if vw.index {
		if err := vw.writeIndex(); err != nil {
			return err
		}
	}
	if vw.gz != nil {
		if err := vw.gz.Close(); err != nil {
			vw.err = err
			return err
		}
	}
	if err := vw.bw.Flush(); err != nil {
		vw.err = err
		return err
	}
	return nil
}

// writeIndex emits the chunk index, its CRC and the footer — the last
// bytes of the container.
func (vw *V2Writer) writeIndex() error {
	idx := make([]byte, len(vw.entries)*indexEntryBytes+chunkCRCBytes+indexFooterBytes)
	for i, e := range vw.entries {
		putIndexEntry(idx[i*indexEntryBytes:], e)
	}
	entryBytes := len(vw.entries) * indexEntryBytes
	binary.LittleEndian.PutUint32(idx[entryBytes:], crc32.Checksum(idx[:entryBytes], castagnoli))
	putIndexFooter(idx[entryBytes+chunkCRCBytes:], uint32(len(vw.entries)), vw.off)
	if _, err := vw.body.Write(idx); err != nil {
		vw.err = err
		return err
	}
	vw.off += int64(len(idx))
	return nil
}

// readerV2 holds the v2-specific decoding state of a Reader.
type readerV2 struct {
	body       io.Reader // raw or gzip-decompressed chunk source
	gz         *gzip.Reader
	compressed bool
	phases     bool // stream-flag bit 1: record byte 10 is a phase id
	checksums  bool // stream-flag bit 2: chunks carry a CRC32C
	indexed    bool // stream-flag bit 3: a chunk index follows the trailer
	chunkCap   int

	chunk []Inst // decoded records of the current chunk
	pos   int    // replay cursor within chunk
	raw   []byte // scratch for one encoded chunk

	chunks   uint64       // chunks streamed so far
	chunkOff int64        // file offset of the next chunk frame
	streamed []IndexEntry // what the body actually contained, for the index cross-check
}

// newReaderV2 reads the v2 header tail (flags + chunk capacity) from
// the source positioned just past the 8-byte common header.
func newReaderV2(br *bufio.Reader) (*readerV2, error) {
	var tail [8]byte
	if _, err := io.ReadFull(br, tail[:]); err != nil {
		return nil, fmt.Errorf("trace: %w: %w: short v2 header: %v", ErrHeader, ErrTruncated, err)
	}
	flags := binary.LittleEndian.Uint32(tail[0:4])
	if flags&^uint32(v2FlagKnown) != 0 {
		return nil, fmt.Errorf("trace: %w: unknown v2 stream flag bits %#x", ErrHeader, flags&^uint32(v2FlagKnown))
	}
	if flags&v2FlagGzip != 0 && flags&(v2FlagCRC|v2FlagIndex) != 0 {
		return nil, fmt.Errorf("trace: %w: stream flags %#x combine gzip with per-chunk CRC/index (reserved combination)", ErrHeader, flags)
	}
	chunkCap := binary.LittleEndian.Uint32(tail[4:8])
	if chunkCap < 1 || chunkCap > MaxChunkRecords {
		return nil, fmt.Errorf("trace: %w: v2 chunk capacity %d outside [1, %d]", ErrHeader, chunkCap, MaxChunkRecords)
	}
	v2 := &readerV2{
		compressed: flags&v2FlagGzip != 0,
		phases:     flags&v2FlagPhases != 0,
		checksums:  flags&v2FlagCRC != 0,
		indexed:    flags&v2FlagIndex != 0,
		chunkCap:   int(chunkCap),
		raw:        make([]byte, int(chunkCap)*recordBytes),
		chunkOff:   v2HeaderBytes,
	}
	if v2.compressed {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("trace: %w: bad gzip body: %v", ErrChunk, err)
		}
		v2.gz = gz
		v2.body = gz
	} else {
		v2.body = br
	}
	return v2, nil
}

// loadChunk decodes the next chunk into r.v2.chunk. It returns false
// when the stream is finished — either cleanly (end marker, verified
// trailer and, when advertised, verified index) or with r.err set.
func (r *Reader) loadChunk() bool {
	v2 := r.v2
	var cnt [4]byte
	if _, err := io.ReadFull(v2.body, cnt[:]); err != nil {
		r.err = fmt.Errorf("trace: %w: chunk header after %d records: %v", ErrTruncated, r.read, err)
		return false
	}
	n := binary.LittleEndian.Uint32(cnt[0:4])
	if n == 0 {
		// End marker: verify the 8-byte trailer, the index when
		// advertised, and that nothing trails the logical end.
		var trailer [8]byte
		if _, err := io.ReadFull(v2.body, trailer[:]); err != nil {
			r.err = fmt.Errorf("trace: %w: trailer after %d records: %v", ErrTruncated, r.read, err)
			return false
		}
		if total := binary.LittleEndian.Uint64(trailer[:]); total != r.read {
			r.err = fmt.Errorf("trace: %w: trailer count %d, streamed %d records (truncated file?)", ErrTrailer, total, r.read)
			return false
		}
		if v2.indexed {
			if err := v2.verifyStreamedIndex(); err != nil {
				r.err = err
				return false
			}
		}
		// The index (or trailer) must be the end: read one more byte
		// and demand EOF, so concatenation damage cannot pass as valid.
		// For a compressed body this read also forces the gzip checksum
		// verification.
		var one [1]byte
		switch _, err := io.ReadFull(v2.body, one[:]); err {
		case io.EOF:
		case nil:
			r.err = fmt.Errorf("trace: %w: trailing data after trailer", ErrTrailer)
			return false
		default:
			r.err = fmt.Errorf("trace: %w: corrupt body after trailer: %v", ErrChunk, err)
			return false
		}
		if v2.gz != nil {
			if err := v2.gz.Close(); err != nil {
				r.err = fmt.Errorf("trace: %w: corrupt gzip body: %v", ErrChunk, err)
				return false
			}
		}
		return false
	}
	if int(n) > v2.chunkCap {
		r.err = fmt.Errorf("trace: %w: chunk of %d records exceeds declared capacity %d", ErrChunk, n, v2.chunkCap)
		return false
	}
	raw := v2.raw[:int(n)*recordBytes]
	if _, err := io.ReadFull(v2.body, raw); err != nil {
		r.err = fmt.Errorf("trace: %w: chunk after %d records: %v", ErrTruncated, r.read, err)
		return false
	}
	if v2.checksums {
		var crcb [chunkCRCBytes]byte
		if _, err := io.ReadFull(v2.body, crcb[:]); err != nil {
			r.err = fmt.Errorf("trace: %w: chunk checksum after %d records: %v", ErrTruncated, r.read, err)
			return false
		}
		want := binary.LittleEndian.Uint32(crcb[:])
		got := crc32.Update(crc32.Checksum(cnt[:], castagnoli), castagnoli, raw)
		if got != want {
			r.err = fmt.Errorf("trace: %w: chunk %d (records %d..%d): stored %08x, computed %08x",
				ErrChunkCRC, v2.chunks, r.read, r.read+uint64(n)-1, want, got)
			return false
		}
	}
	if cap(v2.chunk) < int(n) {
		v2.chunk = make([]Inst, int(n))
	}
	v2.chunk = v2.chunk[:int(n)]
	var pMin, pMax uint8
	for i := range v2.chunk {
		inst, err := decodeRecord(raw[i*recordBytes:], v2.phases)
		if err != nil {
			r.err = fmt.Errorf("%w (record %d)", err, r.read+uint64(i))
			return false
		}
		if v2.phases {
			if i == 0 {
				pMin, pMax = inst.Phase, inst.Phase
			} else if inst.Phase < pMin {
				pMin = inst.Phase
			} else if inst.Phase > pMax {
				pMax = inst.Phase
			}
		} else if raw[i*recordBytes+10] != 0 {
			r.stray++
		}
		v2.chunk[i] = inst
	}
	if v2.indexed {
		v2.streamed = append(v2.streamed, IndexEntry{
			Offset: v2.chunkOff, Count: int(n), MinPhase: pMin, MaxPhase: pMax,
		})
	}
	frame := int64(4 + int(n)*recordBytes)
	if v2.checksums {
		frame += chunkCRCBytes
	}
	v2.chunkOff += frame
	v2.chunks++
	v2.pos = 0
	return true
}

// verifyStreamedIndex reads the chunk index, its CRC and the footer
// from the body and cross-checks every entry against the chunks that
// were actually streamed. Called with the body positioned just past the
// trailer; on success the next read must hit EOF.
func (v2 *readerV2) verifyStreamedIndex() error {
	idx := make([]byte, len(v2.streamed)*indexEntryBytes)
	if _, err := io.ReadFull(v2.body, idx); err != nil {
		return fmt.Errorf("trace: %w: %w: index after %d chunks: %v", ErrIndex, ErrTruncated, v2.chunks, err)
	}
	for i := range v2.streamed {
		e, err := getIndexEntry(idx[i*indexEntryBytes:])
		if err != nil {
			return fmt.Errorf("%w (entry %d)", err, i)
		}
		if e != v2.streamed[i] {
			return fmt.Errorf("trace: %w: entry %d is %+v, streamed chunk was %+v", ErrIndex, i, e, v2.streamed[i])
		}
	}
	var crcb [chunkCRCBytes]byte
	if _, err := io.ReadFull(v2.body, crcb[:]); err != nil {
		return fmt.Errorf("trace: %w: %w: index checksum: %v", ErrIndexCRC, ErrTruncated, err)
	}
	if want, got := binary.LittleEndian.Uint32(crcb[:]), crc32.Checksum(idx, castagnoli); want != got {
		return fmt.Errorf("trace: %w: stored %08x, computed %08x", ErrIndexCRC, want, got)
	}
	var fb [indexFooterBytes]byte
	if _, err := io.ReadFull(v2.body, fb[:]); err != nil {
		return fmt.Errorf("trace: %w: %w: index footer: %v", ErrIndex, ErrTruncated, err)
	}
	chunks, indexOff, err := getIndexFooter(fb[:])
	if err != nil {
		return err
	}
	if chunks != uint32(len(v2.streamed)) {
		return fmt.Errorf("trace: %w: footer declares %d chunks, streamed %d", ErrIndex, chunks, len(v2.streamed))
	}
	if wantOff := v2.chunkOff + v2EndBytes; indexOff != wantOff {
		return fmt.Errorf("trace: %w: footer index offset %d, index started at %d", ErrIndex, indexOff, wantOff)
	}
	return nil
}

// nextV2 returns the next record of a v2 file, loading chunks on
// demand.
func (r *Reader) nextV2() (Inst, bool) {
	v2 := r.v2
	if v2.pos >= len(v2.chunk) {
		if !r.loadChunk() {
			r.done = true
			return Inst{}, false
		}
	}
	inst := v2.chunk[v2.pos]
	v2.pos++
	r.read++
	return inst, true
}

// nextBatchV2 copies decoded records out of the chunk buffer in bulk.
func (r *Reader) nextBatchV2(buf []Inst) int {
	if r.done || r.err != nil {
		return 0
	}
	v2 := r.v2
	n := 0
	for n < len(buf) {
		if v2.pos >= len(v2.chunk) {
			if !r.loadChunk() {
				r.done = true
				break
			}
		}
		c := copy(buf[n:], v2.chunk[v2.pos:])
		v2.pos += c
		r.read += uint64(c)
		n += c
	}
	return n
}

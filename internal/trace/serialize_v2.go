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

// V2Options configures WriteV2.
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
	// phase-id range, plus an index CRC and a fixed footer, which
	// readers cross-check against the chunks they stream.
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

// frameBytes is the length of a chunk frame holding n records: the
// count field, the records and, under stream-flag bit 2, the CRC32C.
func (h header) frameBytes(n int) int {
	f := 4 + n*recordBytes
	if h.checksums {
		f += chunkCRCBytes
	}
	return f
}

// decodeChunk is the one validator of a v2 chunk frame. frame holds the
// whole frame of len(dst) > 0 records, as its stored count says. It
// verifies the CRC32C under stream-flag bit 2 and every record's
// reserved flag bits, decodes the records into dst, and returns the
// index entry the frame implies (count and phase range; the caller
// knows the offset) plus the number of records whose reserved phase
// byte is set in a phase-less stream.
func (h header) decodeChunk(frame []byte, dst []Inst) (IndexEntry, uint64, error) {
	if h.checksums {
		body := frame[:len(frame)-chunkCRCBytes]
		if want, got := binary.LittleEndian.Uint32(frame[len(body):]), crc32.Checksum(body, castagnoli); want != got {
			return IndexEntry{}, 0, fmt.Errorf("trace: %w: stored %08x, computed %08x", ErrChunkCRC, want, got)
		}
	}
	recs := frame[4:]
	if flags := decodeRecords(dst, recs, h.phases); flags&^byte(flagKnown) != 0 {
		// Some record sets a reserved bit: name the first one.
		i := firstBadRecord(recs)
		return IndexEntry{}, 0, fmt.Errorf("%w (record %d of the chunk)", errRecordFlags(recs[i*recordBytes+8]), i)
	}
	e := IndexEntry{Count: len(dst)}
	if !h.phases {
		return e, strayPhaseBytes(recs, len(dst)), nil
	}
	e.MinPhase, e.MaxPhase = dst[0].Phase, dst[0].Phase
	for _, inst := range dst[1:] {
		e.MinPhase = min(e.MinPhase, inst.Phase)
		e.MaxPhase = max(e.MaxPhase, inst.Phase)
	}
	return e, 0, nil
}

// WriteV2 serialises the full stream to w in format v2 and returns the
// record count. Memory use is bounded by one chunk (plus 16 bytes per
// chunk when an index is requested) regardless of the stream length.
// Each chunk is one NextSlice window of the chunk capacity, so every
// chunk but the last holds exactly the capacity. Unlike v1 there is no
// practical length limit (the trailer is 64-bit).
func WriteV2(w io.Writer, s Stream, o V2Options) (int64, error) {
	chunkCap, err := o.chunkRecords()
	if err != nil {
		return 0, err
	}
	if o.Compress && (o.Checksums || o.Index) {
		return 0, fmt.Errorf("trace: %w: per-chunk checksums and the chunk index need an uncompressed body (gzip carries its own CRC and hides chunk offsets)", ErrHeader)
	}
	h := header{checksums: o.Checksums}
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
	bw := bufio.NewWriter(w)
	var hdr [v2HeaderBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:4], traceMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], traceVersionV2)
	binary.LittleEndian.PutUint32(hdr[8:12], flags)
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(chunkCap))
	if _, err := bw.Write(hdr[:]); err != nil {
		return 0, err
	}
	var body io.Writer = bw
	var gz *gzip.Writer
	if o.Compress {
		gz = gzip.NewWriter(bw)
		body = gz
	}

	raw := make([]byte, h.frameBytes(chunkCap))
	var (
		total   int64
		off     int64 = v2HeaderBytes // file offset of the next chunk frame
		entries []IndexEntry
	)
	for {
		insts := s.NextSlice(chunkCap)
		n := len(insts)
		if n == 0 {
			break
		}
		frame := raw[:h.frameBytes(n)]
		binary.LittleEndian.PutUint32(frame[0:4], uint32(n))
		e := IndexEntry{Offset: off, Count: n}
		for i, inst := range insts {
			encodeRecord(frame[4+i*recordBytes:], inst, o.Phases)
			if o.Phases {
				if i == 0 || inst.Phase < e.MinPhase {
					e.MinPhase = inst.Phase
				}
				if inst.Phase > e.MaxPhase {
					e.MaxPhase = inst.Phase
				}
			}
		}
		if o.Checksums {
			crc := frame[len(frame)-chunkCRCBytes:]
			binary.LittleEndian.PutUint32(crc, crc32.Checksum(frame[:len(frame)-chunkCRCBytes], castagnoli))
		}
		if _, err := body.Write(frame); err != nil {
			return total, err
		}
		if o.Index {
			entries = append(entries, e)
		}
		off += int64(len(frame))
		total += int64(n)
	}

	// The end marker (a zero count) and the 64-bit total trailer, then
	// the index: its entries, their CRC and the footer that ends the
	// file.
	tail := make([]byte, v2EndBytes)
	binary.LittleEndian.PutUint64(tail[4:12], uint64(total))
	if o.Index {
		idx := make([]byte, len(entries)*indexEntryBytes+chunkCRCBytes+indexFooterBytes)
		for i, e := range entries {
			putIndexEntry(idx[i*indexEntryBytes:], e)
		}
		entryBytes := len(entries) * indexEntryBytes
		binary.LittleEndian.PutUint32(idx[entryBytes:], crc32.Checksum(idx[:entryBytes], castagnoli))
		putIndexFooter(idx[entryBytes+chunkCRCBytes:], uint32(len(entries)), off+v2EndBytes)
		tail = append(tail, idx...)
	}
	if _, err := body.Write(tail); err != nil {
		return total, err
	}
	if gz != nil {
		if err := gz.Close(); err != nil {
			return total, err
		}
	}
	return total, bw.Flush()
}

// readerV2 holds the v2-specific decoding state of a Reader.
type readerV2 struct {
	body io.Reader // raw or gzip-decompressed chunk source
	gz   *gzip.Reader

	chunks   uint64       // chunks streamed so far
	chunkOff int64        // file offset of the next chunk frame
	streamed []IndexEntry // what the body actually contained, for the index cross-check
}

// newReaderV2 sets up body decoding for a v2 file whose header h has
// been read from br.
func newReaderV2(br *bufio.Reader, h header) (*readerV2, error) {
	v2 := &readerV2{body: br, chunkOff: v2HeaderBytes}
	if h.compressed {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("trace: %w: bad gzip body: %v", ErrChunk, err)
		}
		v2.gz = gz
		v2.body = gz
	}
	return v2, nil
}

// loadChunk decodes the next chunk into buf. It returns false when
// the stream is finished — either cleanly (end marker, verified trailer
// and, when advertised, verified index) or with r.err set.
func (r *Reader) loadChunk() bool {
	v2 := r.v2
	if _, err := io.ReadFull(v2.body, r.raw[0:4]); err != nil {
		return r.end(fmt.Errorf("trace: %w: chunk header after %d records: %v", ErrTruncated, r.read, err))
	}
	n := int(binary.LittleEndian.Uint32(r.raw[0:4]))
	if n == 0 {
		return r.end(r.finishV2())
	}
	if n > r.hdr.chunkCap {
		return r.end(fmt.Errorf("trace: %w: chunk of %d records exceeds declared capacity %d", ErrChunk, n, r.hdr.chunkCap))
	}
	frame := r.raw[:r.hdr.frameBytes(n)]
	if _, err := io.ReadFull(v2.body, frame[4:]); err != nil {
		return r.end(fmt.Errorf("trace: %w: chunk after %d records: %v", ErrTruncated, r.read, err))
	}
	e, stray, err := r.hdr.decodeChunk(frame, r.bufFor(n))
	if err != nil {
		return r.end(fmt.Errorf("%w (chunk %d, records %d..%d)", err, v2.chunks, r.read, r.read+uint64(n)-1))
	}
	r.stray += stray
	e.Offset = v2.chunkOff
	if r.hdr.indexed {
		v2.streamed = append(v2.streamed, e)
	}
	if r.onChunk != nil {
		r.onChunk(e.Offset+4, n)
	}
	v2.chunkOff += int64(len(frame))
	v2.chunks++
	r.read += uint64(n)
	r.buf, r.pos = r.buf[:n], 0
	return true
}

// finishV2 validates everything after the end marker: the 8-byte
// trailer, the index when advertised, and that nothing trails the
// logical end.
func (r *Reader) finishV2() error {
	v2 := r.v2
	var trailer [8]byte
	if _, err := io.ReadFull(v2.body, trailer[:]); err != nil {
		return fmt.Errorf("trace: %w: trailer after %d records: %v", ErrTruncated, r.read, err)
	}
	if total := binary.LittleEndian.Uint64(trailer[:]); total != r.read {
		return fmt.Errorf("trace: %w: trailer count %d, streamed %d records (truncated file?)", ErrTrailer, total, r.read)
	}
	if r.hdr.indexed {
		if err := v2.verifyStreamedIndex(); err != nil {
			return err
		}
	}
	// The index (or trailer) must be the end: read one more byte and
	// demand EOF, so concatenation damage cannot pass as valid. For a
	// compressed body this read also forces the gzip checksum
	// verification.
	var one [1]byte
	switch _, err := io.ReadFull(v2.body, one[:]); err {
	case io.EOF:
	case nil:
		return fmt.Errorf("trace: %w: trailing data after trailer", ErrTrailer)
	default:
		return fmt.Errorf("trace: %w: corrupt body after trailer: %v", ErrChunk, err)
	}
	if v2.gz != nil {
		if err := v2.gz.Close(); err != nil {
			return fmt.Errorf("trace: %w: corrupt gzip body: %v", ErrChunk, err)
		}
	}
	return nil
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

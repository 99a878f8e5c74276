package trace

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Seekable chunk index (v2 stream-flag bit 3, docs/TRACEFORMAT.md):
// the container's last bytes are a fixed 16-byte footer pointing back
// at one 16-byte entry per chunk plus an index CRC32C. A seekable
// consumer reads the footer, walks back to the entries, and from then
// on can address any chunk — decode chunks in parallel
// (LoadArenaFile) or map the records in place (OpenMapArena) — without
// streaming the body.

const (
	indexEntryBytes  = 16
	indexFooterBytes = 16
	indexMagic       = 0x58444354 // "TCDX" on disk
)

// IndexEntry describes one chunk of an indexed v2 container: where its
// frame starts, how many records it holds, and the phase-id range of
// those records (0/0 when the stream carries no phase annotations).
type IndexEntry struct {
	Offset   int64
	Count    int
	MinPhase uint8
	MaxPhase uint8
}

// frameBytes is the chunk frame length the entry implies: count field,
// records, and the chunk CRC when the stream carries checksums.
func (e IndexEntry) frameBytes(checksums bool) int64 {
	n := int64(4 + e.Count*recordBytes)
	if checksums {
		n += chunkCRCBytes
	}
	return n
}

// putIndexEntry encodes one 16-byte index entry.
func putIndexEntry(b []byte, e IndexEntry) {
	binary.LittleEndian.PutUint64(b[0:8], uint64(e.Offset))
	binary.LittleEndian.PutUint32(b[8:12], uint32(e.Count))
	b[12] = e.MinPhase
	b[13] = e.MaxPhase
	b[14], b[15] = 0, 0
}

// getIndexEntry decodes and structurally validates one index entry.
func getIndexEntry(b []byte) (IndexEntry, error) {
	e := IndexEntry{
		Offset:   int64(binary.LittleEndian.Uint64(b[0:8])),
		Count:    int(binary.LittleEndian.Uint32(b[8:12])),
		MinPhase: b[12],
		MaxPhase: b[13],
	}
	if b[14] != 0 || b[15] != 0 {
		return IndexEntry{}, fmt.Errorf("trace: %w: reserved entry bytes %#02x%02x", ErrIndex, b[14], b[15])
	}
	if e.MinPhase > e.MaxPhase {
		return IndexEntry{}, fmt.Errorf("trace: %w: entry phase range %d..%d inverted", ErrIndex, e.MinPhase, e.MaxPhase)
	}
	return e, nil
}

// putIndexFooter encodes the fixed footer that ends an indexed file.
func putIndexFooter(b []byte, chunks uint32, indexOff int64) {
	binary.LittleEndian.PutUint32(b[0:4], indexMagic)
	binary.LittleEndian.PutUint32(b[4:8], chunks)
	binary.LittleEndian.PutUint64(b[8:16], uint64(indexOff))
}

// getIndexFooter decodes the footer, validating its magic.
func getIndexFooter(b []byte) (chunks uint32, indexOff int64, err error) {
	if m := binary.LittleEndian.Uint32(b[0:4]); m != indexMagic {
		return 0, 0, fmt.Errorf("trace: %w: bad footer magic %#x", ErrIndex, m)
	}
	return binary.LittleEndian.Uint32(b[4:8]), int64(binary.LittleEndian.Uint64(b[8:16])), nil
}

// fileMeta is a container's header — and, when present, its fully
// validated chunk index — parsed from a seekable source without
// reading the body. It is the shared foundation of both random-access
// consumers: parallel arena loading and the mmap arena.
type fileMeta struct {
	version    int
	compressed bool
	phases     bool
	checksums  bool
	indexed    bool
	chunkCap   int
	size       int64
	total      uint64       // trailer record count (indexed v2 and v1 only)
	entries    []IndexEntry // indexed v2 only
	indexOff   int64        // file offset of the first index entry
}

// readFileMeta parses the header from a seekable source and, for an
// indexed v2 container, reads and fully validates the chunk index:
// footer magic and geometry, index CRC, entry reserved bytes, strictly
// increasing offsets whose frame arithmetic tiles the body exactly,
// counts within the chunk capacity summing to the trailer, and the end
// marker/trailer themselves. The chunk bodies are NOT read — that is
// the point — so record-level validation (CRCs, flag bits) remains the
// consumer's job.
func readFileMeta(r io.ReaderAt, size int64) (*fileMeta, error) {
	var hdr [v2HeaderBytes]byte
	if size < 8 {
		return nil, fmt.Errorf("trace: %w: %w: %d-byte file", ErrHeader, ErrTruncated, size)
	}
	common := hdr[:8]
	if size >= v2HeaderBytes {
		common = hdr[:]
	}
	if _, err := r.ReadAt(common, 0); err != nil {
		return nil, fmt.Errorf("trace: %w: %w: short header: %v", ErrHeader, ErrTruncated, err)
	}
	if m := binary.LittleEndian.Uint32(hdr[0:4]); m != traceMagic {
		return nil, fmt.Errorf("trace: %w: bad magic %#x", ErrHeader, m)
	}
	m := &fileMeta{size: size}
	switch v := binary.LittleEndian.Uint32(hdr[4:8]); v {
	case traceVersionV1:
		m.version = traceVersionV1
		// v1 is a flat record array with a uint32 trailer: its geometry
		// is fully determined by the file size.
		if size < 8+4 || (size-8-4)%recordBytes != 0 {
			return nil, fmt.Errorf("trace: %w: v1 file size %d does not frame whole records", ErrTruncated, size)
		}
		m.total = uint64((size - 8 - 4) / recordBytes)
		var tb [4]byte
		if _, err := r.ReadAt(tb[:], size-4); err != nil {
			return nil, fmt.Errorf("trace: %w: %w: v1 trailer: %v", ErrTrailer, ErrTruncated, err)
		}
		if got := binary.LittleEndian.Uint32(tb[:]); uint64(got) != m.total {
			return nil, fmt.Errorf("trace: %w: v1 trailer count %d, file frames %d records", ErrTrailer, got, m.total)
		}
		return m, nil
	case traceVersionV2:
		m.version = traceVersionV2
	default:
		return nil, fmt.Errorf("trace: %w: unsupported version %d", ErrHeader, v)
	}
	if size < v2HeaderBytes {
		return nil, fmt.Errorf("trace: %w: %w: short v2 header", ErrHeader, ErrTruncated)
	}
	flags := binary.LittleEndian.Uint32(hdr[8:12])
	if flags&^uint32(v2FlagKnown) != 0 {
		return nil, fmt.Errorf("trace: %w: unknown v2 stream flag bits %#x", ErrHeader, flags&^uint32(v2FlagKnown))
	}
	if flags&v2FlagGzip != 0 && flags&(v2FlagCRC|v2FlagIndex) != 0 {
		return nil, fmt.Errorf("trace: %w: stream flags %#x combine gzip with per-chunk CRC/index (reserved combination)", ErrHeader, flags)
	}
	m.compressed = flags&v2FlagGzip != 0
	m.phases = flags&v2FlagPhases != 0
	m.checksums = flags&v2FlagCRC != 0
	m.indexed = flags&v2FlagIndex != 0
	chunkCap := binary.LittleEndian.Uint32(hdr[12:16])
	if chunkCap < 1 || chunkCap > MaxChunkRecords {
		return nil, fmt.Errorf("trace: %w: v2 chunk capacity %d outside [1, %d]", ErrHeader, chunkCap, MaxChunkRecords)
	}
	m.chunkCap = int(chunkCap)
	if !m.indexed {
		return m, nil
	}
	return m, m.readIndex(r)
}

// readIndex loads and validates the chunk index of an indexed v2
// container (see readFileMeta for what is checked).
func (m *fileMeta) readIndex(r io.ReaderAt) error {
	if m.size < v2HeaderBytes+v2EndBytes+chunkCRCBytes+indexFooterBytes {
		return fmt.Errorf("trace: %w: %w: %d-byte file cannot hold an indexed container", ErrIndex, ErrTruncated, m.size)
	}
	var fb [indexFooterBytes]byte
	if _, err := r.ReadAt(fb[:], m.size-indexFooterBytes); err != nil {
		return fmt.Errorf("trace: %w: %w: index footer: %v", ErrIndex, ErrTruncated, err)
	}
	chunks, indexOff, err := getIndexFooter(fb[:])
	if err != nil {
		return err
	}
	if want := indexOff + int64(chunks)*indexEntryBytes + chunkCRCBytes + indexFooterBytes; indexOff < v2HeaderBytes+v2EndBytes || want != m.size {
		return fmt.Errorf("trace: %w: footer geometry (offset %d, %d chunks) does not tile the %d-byte file", ErrIndex, indexOff, chunks, m.size)
	}
	m.indexOff = indexOff
	idx := make([]byte, int(chunks)*indexEntryBytes+chunkCRCBytes)
	if _, err := r.ReadAt(idx, indexOff); err != nil {
		return fmt.Errorf("trace: %w: %w: index: %v", ErrIndex, ErrTruncated, err)
	}
	entryBytes := int(chunks) * indexEntryBytes
	if want, got := binary.LittleEndian.Uint32(idx[entryBytes:]), crc32.Checksum(idx[:entryBytes], castagnoli); want != got {
		return fmt.Errorf("trace: %w: stored %08x, computed %08x", ErrIndexCRC, want, got)
	}
	m.entries = make([]IndexEntry, chunks)
	off := int64(v2HeaderBytes)
	var total uint64
	for i := range m.entries {
		e, err := getIndexEntry(idx[i*indexEntryBytes:])
		if err != nil {
			return fmt.Errorf("%w (entry %d)", err, i)
		}
		if e.Count < 1 || e.Count > m.chunkCap {
			return fmt.Errorf("trace: %w: entry %d holds %d records, capacity %d", ErrIndex, i, e.Count, m.chunkCap)
		}
		if e.Offset != off {
			return fmt.Errorf("trace: %w: entry %d at offset %d, previous frame ended at %d", ErrIndex, i, e.Offset, off)
		}
		if !m.phases && (e.MinPhase != 0 || e.MaxPhase != 0) {
			return fmt.Errorf("trace: %w: entry %d declares phase range %d..%d in a phase-less stream", ErrIndex, i, e.MinPhase, e.MaxPhase)
		}
		off += e.frameBytes(m.checksums)
		total += uint64(e.Count)
		m.entries[i] = e
	}
	if off != indexOff-v2EndBytes {
		return fmt.Errorf("trace: %w: chunks end at offset %d, end marker expected at %d", ErrIndex, off, indexOff-v2EndBytes)
	}
	var end [v2EndBytes]byte
	if _, err := r.ReadAt(end[:], off); err != nil {
		return fmt.Errorf("trace: %w: %w: end marker: %v", ErrTrailer, ErrTruncated, err)
	}
	if c := binary.LittleEndian.Uint32(end[0:4]); c != 0 {
		return fmt.Errorf("trace: %w: end marker holds chunk count %d", ErrTrailer, c)
	}
	if got := binary.LittleEndian.Uint64(end[4:12]); got != total {
		return fmt.Errorf("trace: %w: trailer count %d, index sums to %d", ErrTrailer, got, total)
	}
	m.total = total
	return nil
}

// decodeChunkAt reads and fully validates the chunk described by entry
// e from r: frame length, stored count, CRC (when the stream carries
// checksums), per-record reserved flag bits, and the entry's declared
// phase range. Decoded records are appended into dst (which must have
// capacity) and raw is the caller's frame scratch, grown as needed.
func (m *fileMeta) decodeChunkAt(r io.ReaderAt, e IndexEntry, chunkIdx int, dst []Inst, raw []byte) ([]Inst, []byte, error) {
	frame := int(e.frameBytes(m.checksums))
	if cap(raw) < frame {
		raw = make([]byte, frame)
	}
	raw = raw[:frame]
	if _, err := r.ReadAt(raw, e.Offset); err != nil {
		return dst, raw, fmt.Errorf("trace: %w: chunk %d at offset %d: %v", ErrTruncated, chunkIdx, e.Offset, err)
	}
	if got := binary.LittleEndian.Uint32(raw[0:4]); int(got) != e.Count {
		return dst, raw, fmt.Errorf("trace: %w: chunk %d stores count %d, index declares %d", ErrChunk, chunkIdx, got, e.Count)
	}
	recs := raw[4 : 4+e.Count*recordBytes]
	if m.checksums {
		want := binary.LittleEndian.Uint32(raw[len(raw)-chunkCRCBytes:])
		got := crc32.Checksum(raw[:len(raw)-chunkCRCBytes], castagnoli)
		if want != got {
			return dst, raw, fmt.Errorf("trace: %w: chunk %d: stored %08x, computed %08x", ErrChunkCRC, chunkIdx, want, got)
		}
	}
	for i := 0; i < e.Count; i++ {
		inst, err := decodeRecord(recs[i*recordBytes:], m.phases)
		if err != nil {
			return dst, raw, fmt.Errorf("%w (chunk %d record %d)", err, chunkIdx, i)
		}
		if m.phases && (inst.Phase < e.MinPhase || inst.Phase > e.MaxPhase) {
			return dst, raw, fmt.Errorf("trace: %w: chunk %d record %d has phase %d outside declared range %d..%d",
				ErrIndex, chunkIdx, i, inst.Phase, e.MinPhase, e.MaxPhase)
		}
		dst = append(dst, inst)
	}
	return dst, raw, nil
}

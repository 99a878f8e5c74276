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
// on can address any chunk — LoadArenaFile decodes them in parallel —
// without streaming the body.

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
// reading the body. It is what lets LoadArenaFile decode an indexed
// file's chunks in parallel.
type fileMeta struct {
	header
	size    int64
	total   uint64       // trailer record count (indexed only)
	entries []IndexEntry // indexed only
}

// readFileMeta parses the header from a seekable source and, for an
// indexed v2 container, reads and validates the chunk index: footer
// magic and geometry, index CRC, entry reserved bytes, strictly
// increasing offsets whose frame arithmetic tiles the body exactly,
// counts within the chunk capacity summing to the trailer, and the end
// marker/trailer themselves. The chunk bodies are NOT read — that is
// the point — so each chunk is checked against its entry when it is
// decoded.
func readFileMeta(r io.ReaderAt, size int64) (*fileMeta, error) {
	h, err := readHeader(io.NewSectionReader(r, 0, size))
	if err != nil {
		return nil, err
	}
	m := &fileMeta{header: h, size: size}
	if !h.indexed {
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
		off += int64(m.frameBytes(e.Count))
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

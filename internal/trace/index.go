package trace

import (
	"encoding/binary"
	"fmt"
)

// Seekable chunk index (v2 stream-flag bit 3, docs/TRACEFORMAT.md):
// the container's last bytes are a fixed 16-byte footer pointing back
// at one 16-byte entry per chunk plus an index CRC32C. A seekable
// consumer can read the footer, walk back to the entries, and address
// any chunk without streaming the body; the streaming reader
// cross-checks every entry against the chunk it streamed.

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

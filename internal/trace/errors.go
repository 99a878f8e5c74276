package trace

import "errors"

// Sentinel errors naming the structural region a container failed in.
// Every validation failure the readers report wraps exactly one of
// these (plus ErrTruncated when the failure is a short read), so
// callers — and the corruption-injection suite that proves it — can
// classify a rejection with errors.Is instead of parsing messages.
// The free-text part of each error still carries the precise detail
// (offsets, counts, record indices).
var (
	// ErrHeader: the common or v2 header is invalid — bad magic,
	// unsupported version, unknown stream-flag bits, an out-of-range
	// chunk capacity, or a flag combination the spec forbids (per-chunk
	// checksums or a chunk index on a gzip body).
	ErrHeader = errors.New("invalid header")

	// ErrRecord: a record body is invalid (reserved flag bits set).
	ErrRecord = errors.New("corrupt record")

	// ErrChunk: chunk framing is invalid — a chunk count above the
	// declared capacity — or a gzip body is corrupt.
	ErrChunk = errors.New("corrupt chunk")

	// ErrChunkCRC: a chunk's CRC32C does not match its bytes
	// (stream-flag bit 2).
	ErrChunkCRC = errors.New("chunk checksum mismatch")

	// ErrTrailer: the record-count trailer disagrees with the records
	// read, or data trails the logical end of the container.
	ErrTrailer = errors.New("corrupt trailer")

	// ErrIndex: the chunk index or its footer is structurally invalid —
	// bad footer magic, offsets that disagree with the chunks, counts or
	// phase ranges that disagree with the records (stream-flag bit 3).
	ErrIndex = errors.New("corrupt chunk index")

	// ErrIndexCRC: the chunk index's CRC32C does not match its entries.
	ErrIndexCRC = errors.New("chunk index checksum mismatch")

	// ErrTruncated: the container ended mid-structure. Always wrapped
	// alongside the region sentinel of the structure that was cut short
	// when that region is known.
	ErrTruncated = errors.New("truncated container")

	// ErrNotMappable: the file is a valid container but cannot be
	// memory-mapped for in-place replay (its body is gzip-compressed, so
	// the on-disk bytes are not the records). OpenSlab falls back to
	// slab loading on it.
	ErrNotMappable = errors.New("container not mappable")
)

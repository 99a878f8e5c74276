// Package store is a crash-safe, content-addressed on-disk result
// store: the durable sibling of the engine's in-process memoization
// (sim.Shared, bench.ArenaCache). Entries are addressed by a SHA-256
// digest of everything that defines a result — module version,
// experiment name, canonicalized options, seed, grid point — and
// written with the same discipline the trace layer brought to
// containers: temp file + fsync + rename + directory fsync, a version
// header, and a CRC32C over every byte. A reopened store either serves
// the exact bytes that were written or reports a miss; corrupt or
// truncated entries are quarantined, never returned and never fatal.
//
// Every filesystem touch goes through the FS interface, so the torture
// suite (store/errfs) can inject a crash, torn write, ENOSPC or EIO at
// every syscall boundary and prove those guarantees case by case.
package store

import (
	"errors"
	"fmt"
	"io"
	"log"
	"path/filepath"
	"strings"
	"sync/atomic"
)

// Store is a content-addressed entry store rooted at one directory.
// Entries live at <dir>/<hh>/<digest>.res, sharded by the first digest
// byte so huge sweeps do not pile every entry into one directory (the
// cache/disk layout idiom). All methods are safe for concurrent use.
type Store struct {
	fs  FS
	dir string

	tmpSeq atomic.Uint64 // distinguishes concurrent writers of one digest

	hits        atomic.Uint64
	misses      atomic.Uint64
	quarantined atomic.Uint64
	quarFiles   atomic.Uint64 // entries in quarantine/ (counted at Open, tracked since)
}

// Stats is a snapshot of a store's traffic counters.
type Stats struct {
	Hits        uint64 // Get served a validated payload
	Misses      uint64 // Get found nothing usable (absent, unreadable, corrupt, future-version)
	Quarantined uint64 // corrupt entries moved aside (or, over the cap, deleted) by Get
	// QuarantineFiles is the number of entries currently parked in
	// <dir>/quarantine — counted once at Open and maintained as Get
	// quarantines more — so a service endpoint can watch a flapping
	// disk's debris accumulate instead of discovering a full volume.
	QuarantineFiles uint64
}

const (
	entryExt      = ".res"
	tmpExt        = ".tmp"
	quarantineDir = "quarantine"

	// QuarantineWarn is the quarantine population above which Open logs
	// a one-line warning: that many damaged entries means the disk (or a
	// writer) is flapping, not that one page was torn.
	QuarantineWarn = 100
	// QuarantineCap bounds quarantine growth: once the directory holds
	// this many entries, newly damaged files are deleted instead of
	// preserved, so a flapping disk cannot silently fill the volume with
	// its own corruption.
	QuarantineCap = 1024
)

// logf is the store's warning sink, swappable by tests.
var logf = log.Printf

// Open opens (creating if needed) a store rooted at dir on the real
// filesystem.
func Open(dir string) (*Store, error) { return OpenFS(OSFS{}, dir) }

// OpenFS is Open over an injectable filesystem. Opening sweeps
// leftover temporary files — the residue of a crash mid-Put — because
// they are unreferenced garbage by construction: a Put either renamed
// its temp file into place or its entry does not exist.
func OpenFS(fsys FS, dir string) (*Store, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	s := &Store{fs: fsys, dir: dir}
	s.sweepTmp()
	if n := s.countQuarantine(); n > 0 {
		s.quarFiles.Store(n)
		if n > QuarantineWarn {
			logf("store: %s holds %d quarantined entries (warn threshold %d): the disk or a writer is flapping; inspect or clear %s",
				dir, n, QuarantineWarn, filepath.Join(dir, quarantineDir))
		}
	}
	return s, nil
}

// countQuarantine counts the .res entries parked in the quarantine
// directory; unreadable means zero (the directory may not exist yet).
func (s *Store) countQuarantine() uint64 {
	entries, err := s.fs.ReadDir(filepath.Join(s.dir, quarantineDir))
	if err != nil {
		return 0
	}
	var n uint64
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), entryExt) {
			n++
		}
	}
	return n
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Stats returns a snapshot of the traffic counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:            s.hits.Load(),
		Misses:          s.misses.Load(),
		Quarantined:     s.quarantined.Load(),
		QuarantineFiles: s.quarFiles.Load(),
	}
}

// entryPath returns the final path of a digest's entry.
func (s *Store) entryPath(d Digest) string {
	name := d.String()
	return filepath.Join(s.dir, name[:2], name+entryExt)
}

// Get returns the payload stored under the digest. It reports a miss —
// never an error, never a wrong payload — when the entry is absent,
// unreadable, from a future format version, or damaged in any way;
// damaged entries are additionally moved to <dir>/quarantine so they
// stop being revalidated and stay inspectable.
func (s *Store) Get(d Digest) ([]byte, bool) {
	path := s.entryPath(d)
	f, err := s.fs.Open(path)
	if err != nil {
		s.misses.Add(1)
		return nil, false
	}
	data, err := io.ReadAll(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil { // EIO mid-read: can't validate, so it's a miss
		s.misses.Add(1)
		return nil, false
	}
	payload, err := decodeEntry(data)
	if err != nil {
		s.misses.Add(1)
		if !isVersionErr(err) { // future versions are unreadable, not damaged
			s.quarantine(path, d)
		}
		return nil, false
	}
	s.hits.Add(1)
	return payload, true
}

// Put durably stores the payload under the digest, written by
// WriteFile into the entry's shard directory — so after Put returns nil
// the entry survives a crash, and a crash at any earlier point leaves
// either the previous entry or no entry, never a torn one. On error the
// store remains usable; the caller decides whether a failed checkpoint
// is fatal (for result caching it is not).
func (s *Store) Put(d Digest, payload []byte) error {
	name := d.String()
	shard := filepath.Join(s.dir, name[:2])
	if err := s.fs.MkdirAll(shard, 0o755); err != nil {
		return fmt.Errorf("store: put %s: %w", name, err)
	}
	tmp := fmt.Sprintf("%s.%d%s", name, s.tmpSeq.Add(1), tmpExt)
	if err := WriteFile(s.fs, shard, tmp, name+entryExt, encodeEntry(payload)); err != nil {
		return fmt.Errorf("store: put %s: %w", name, err) // sweepTmp collects a temp file left behind
	}
	return nil
}

// quarantine moves a damaged entry to <dir>/quarantine/<digest>.res,
// falling back to deleting it; if both fail the entry stays put, which
// costs a revalidation per Get but remains a miss. Once the quarantine
// holds QuarantineCap entries, damaged files are deleted outright —
// preserving evidence is worth bounded space, never the whole volume.
func (s *Store) quarantine(path string, d Digest) {
	s.quarantined.Add(1)
	if s.quarFiles.Load() >= QuarantineCap {
		s.fs.Remove(path)
		return
	}
	qdir := filepath.Join(s.dir, quarantineDir)
	if err := s.fs.MkdirAll(qdir, 0o755); err == nil {
		if s.fs.Rename(path, filepath.Join(qdir, d.String()+entryExt)) == nil {
			s.quarFiles.Add(1)
			return
		}
	}
	s.fs.Remove(path)
}

// sweepTmp removes temporary files left behind by interrupted Puts.
// Failures are ignored: a surviving .tmp file is never read by Get.
func (s *Store) sweepTmp() {
	shards, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, sh := range shards {
		if !sh.IsDir() || len(sh.Name()) != 2 {
			continue
		}
		entries, err := s.fs.ReadDir(filepath.Join(s.dir, sh.Name()))
		if err != nil {
			continue
		}
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), tmpExt) {
				s.fs.Remove(filepath.Join(s.dir, sh.Name(), e.Name()))
			}
		}
	}
}

// isVersionErr reports whether the decode failure is ErrVersion.
func isVersionErr(err error) bool { return errors.Is(err, ErrVersion) }

package store

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"
)

// FS is the slice of the filesystem the store touches, factored into an
// interface so tests can inject faults at every syscall boundary
// (store/errfs). Production code uses OSFS; nothing else in the store
// reaches the os package directly, which is what makes the torture
// suite's coverage claim ("a fault at ANY step") honest.
type FS interface {
	// MkdirAll creates a directory chain like os.MkdirAll.
	MkdirAll(path string, perm os.FileMode) error
	// Create truncate-creates a file for writing.
	Create(path string) (File, error)
	// Open opens a file for reading.
	Open(path string) (File, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(path string) error
	// ReadDir lists a directory.
	ReadDir(path string) ([]fs.DirEntry, error)
	// SyncDir fsyncs a directory, making a preceding Rename in it
	// durable. Filesystems that cannot sync directories may return nil.
	SyncDir(path string) error
}

// File is the open-file surface the store uses.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	// Sync flushes the file's data to stable storage (fsync).
	Sync() error
}

// OSFS is the real filesystem.
type OSFS struct{}

// MkdirAll implements FS.
func (OSFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

// Create implements FS.
func (OSFS) Create(path string) (File, error) { return os.Create(path) }

// Open implements FS.
func (OSFS) Open(path string) (File, error) { return os.Open(path) }

// Rename implements FS.
func (OSFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove implements FS.
func (OSFS) Remove(path string) error { return os.Remove(path) }

// ReadDir implements FS.
func (OSFS) ReadDir(path string) ([]fs.DirEntry, error) { return os.ReadDir(path) }

// SyncDir implements FS.
func (OSFS) SyncDir(path string) error { return SyncDir(path) }

// WriteFile durably writes b to dir/name: create dir/tmp, write, fsync,
// close, rename it over dir/name, fsync dir. A crash at any point
// leaves the previous file or the new one, never a torn one; without
// the file's fsync a crash after the rename could leave it empty or
// partial. A failed temp file is removed best-effort. After a failed
// directory sync the new file is visible and valid but not yet
// durable; the caller decides what that costs.
func WriteFile(fsys FS, dir, tmp, name string, b []byte) error {
	tmp = filepath.Join(dir, tmp)
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	_, err = f.Write(b)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, filepath.Join(dir, name))
	}
	if err != nil {
		fsys.Remove(tmp)
		return err
	}
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("sync dir: %w", err)
	}
	return nil
}

// SyncDir fsyncs a directory on the real filesystem: after renaming a
// file into a directory, only a sync of the directory itself makes the
// new name durable — the file's own fsync covers its contents, not its
// directory entry. Filesystems that refuse to sync directories (some
// network mounts) surface as a no-op, not an error, because the rename
// already happened and the caller has nothing better to do.
func SyncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil && (errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP)) {
		return nil
	}
	return err
}

// Package faultfs is the deterministic fault-injection seam under the
// WAL and store file I/O. Production code talks to an FS value (default
// OS, a passthrough to the os package); crash tests substitute an
// Injector that counts every file operation as a named crash point and,
// when armed, fires one scripted fault — a full crash (the process-kill
// model: the triggering operation and every later one fail), a torn
// write (a prefix of the triggering write reaches the file, then crash),
// a short read, a one-shot fsync failure, or a one-shot partial write.
//
// Crash points are names of the form "<label>.<op>", e.g. "wal.write" or
// "store.sync". The label classifies the file (DefaultLabel knows this
// repository's file names); the op is the operation kind. Hit counts per
// point are recorded on every run, so a test can first do a recording
// pass over a workload, read Counts(), and then re-run the workload once
// per (point, hit) pair — the crash matrix — with the certainty that
// every registered point has been killed at least once.
package faultfs

import (
	"io"
	"os"
	"path/filepath"
	"strings"
)

// File is the slice of *os.File the WAL, page cache and token registry
// need. *os.File implements it.
type File interface {
	io.Reader
	io.ReaderAt
	io.Writer
	io.WriterAt
	io.Seeker
	io.Closer
	Sync() error
	Truncate(size int64) error
	Stat() (os.FileInfo, error)
	Name() string
}

// FS is the file-system seam. OS passes through to the os package; an
// Injector wraps another FS and injects scripted faults.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Open(name string) (File, error)
	ReadFile(name string) ([]byte, error)
	ReadDir(name string) ([]os.DirEntry, error)
	Remove(name string) error
	Rename(oldpath, newpath string) error
	MkdirAll(path string, perm os.FileMode) error
	Stat(name string) (os.FileInfo, error)
}

// OS is the passthrough FS used outside fault tests.
type OS struct{}

// OpenFile opens name with os.OpenFile semantics.
func (OS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

// Open opens name read-only.
func (OS) Open(name string) (File, error) { return os.Open(name) }

// ReadFile reads the whole file.
func (OS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// ReadDir lists a directory.
func (OS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }

// Remove deletes a file.
func (OS) Remove(name string) error { return os.Remove(name) }

// Rename renames a file.
func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// MkdirAll creates a directory tree.
func (OS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

// Stat stats a file.
func (OS) Stat(name string) (os.FileInfo, error) { return os.Stat(name) }

// OrOS returns fs, or the OS passthrough when fs is nil — the idiom for
// optional FS fields in Options structs.
func OrOS(fs FS) FS {
	if fs == nil {
		return OS{}
	}
	return fs
}

// DefaultLabel classifies this repository's file names into crash-point
// labels: WAL segments are "wal", store record/token files are "store",
// the epoch file is "epoch", anything else "fs".
func DefaultLabel(path string) string {
	base := filepath.Base(path)
	switch {
	case strings.HasPrefix(base, "wal-") && strings.HasSuffix(base, ".log"):
		return "wal"
	case base == "wal": // the WAL directory itself (mkdir, readdir)
		return "wal"
	case strings.HasPrefix(base, "neostore."):
		return "store"
	case strings.HasPrefix(base, "epoch"):
		return "epoch"
	default:
		return "fs"
	}
}

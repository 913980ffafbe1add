package main

import (
	"os"
	"sync"
	"sync/atomic"

	"neograph/internal/faultfs"
)

// crashFS is the file system the databases run on. It is the operating
// system's, except that it remembers how much of every WAL segment had
// been fsynced. DB.Crash closes the files without flushing, but a process
// kill leaves the operating system's cache intact; discardUnsynced then
// plays the power cut and truncates every segment to its fsynced length,
// so the durability check reads back only what an fsync covered.
type crashFS struct {
	faultfs.OS
	mu    sync.Mutex
	files map[string]*walFile
}

func newCrashFS() *crashFS { return &crashFS{files: make(map[string]*walFile)} }

// walFile counts the bytes appended to one WAL segment and how many of
// them a completed fsync covers.
type walFile struct {
	faultfs.File
	written, synced atomic.Int64
}

func (f *walFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.written.Add(int64(n))
	return n, err
}

func (f *walFile) Sync() error {
	// Appends racing the fsync may or may not be covered; count only the
	// ones that preceded it.
	covered := f.written.Load()
	err := f.File.Sync()
	if err == nil {
		f.synced.Store(covered)
	}
	return err
}

func (f *walFile) Truncate(size int64) error {
	err := f.File.Truncate(size)
	if err == nil {
		f.written.Store(size)
		if f.synced.Load() > size {
			f.synced.Store(size)
		}
	}
	return err
}

func (fs *crashFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := fs.OS.OpenFile(name, flag, perm)
	if err != nil || flag&(os.O_WRONLY|os.O_RDWR) == 0 || faultfs.DefaultLabel(name) != "wal" {
		return f, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	// Whatever the segment holds when it is opened survived the last
	// crash, so it counts as durable.
	wf := &walFile{File: f}
	wf.written.Store(st.Size())
	wf.synced.Store(st.Size())
	fs.mu.Lock()
	fs.files[name] = wf
	fs.mu.Unlock()
	return wf, nil
}

// discardUnsynced truncates every WAL segment written through fs to the
// length its last completed fsync covered. Call it only between a crash
// and the reopen.
func (fs *crashFS) discardUnsynced() (err error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for name, f := range fs.files {
		st, serr := os.Stat(name)
		if serr != nil {
			continue // the checkpointer pruned the segment
		}
		if keep := f.synced.Load(); st.Size() > keep {
			if terr := os.Truncate(name, keep); terr != nil && err == nil {
				err = terr
			}
		}
	}
	fs.files = make(map[string]*walFile)
	return err
}

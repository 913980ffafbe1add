package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"

	"neograph/internal/faultfs"
	"neograph/internal/pagecache"
)

// The record files change on disk in one way only: a flush of the whole
// store, made atomic by a double-write journal. A page a cache writes back
// — evicted, or flushed — goes into the journal file, not into its record
// file; Flush completes the journal with a trailer and fsyncs it, then
// copies its pages into place, fsyncs the record files and removes the
// journal. A crash leaves either no whole journal — the record files are
// untouched, still the previous flush — or a whole one, which Open copies
// into place again before anything reads the files: the new flush.
//
// That is what the log's redo rests on (internal/core/record.go): an
// update is logged as a change to the entity's previous version, so the
// image a recovery reads from the store has to be a version the entity
// really had, whole — not a record pointing into a property chain that a
// checkpoint killed in mid-write had only half replaced, which is what
// writing pages in place as they fall out of the cache leaves behind.
//
// What it costs: every page is written twice and a flush takes two more
// fsyncs (the journal, its directory). Memory holds one map entry per
// staged page, about 1/150 of the page, so the caches' capacity still
// bounds the pages the store keeps in memory, however much is dirtied
// between two flushes; the journal file grows to that size instead.

const journalName = "neostore.journal"

// journalFiles is the order the journal numbers the record files in.
var journalFiles = [...]string{"neostore.nodes.db", "neostore.rels.db", "neostore.props.db", "neostore.dyn.db"}

// A journal is a run of page entries and a trailer:
//
//	entry    file:u32le  page:u64le  crc:u32le(castagnoli, over data)  data[PageSize]
//	trailer  magic:u32le  entries:u32le
//
// It counts only if it ends in a trailer that agrees with the entries
// before it, each with its checksum: anything less was cut short before
// its fsync, and no record file had been touched yet.
const (
	journalEntryHeader = 16
	journalEntrySize   = journalEntryHeader + pagecache.PageSize
	journalTrailerSize = 8
	journalMagic       = 0x4a4c4e47 // "GNLJ"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

type pageKey struct {
	file int
	page uint64
}

// journal holds the record files and, between two flushes, the pages that
// are to replace theirs.
type journal struct {
	fs    faultfs.FS
	dir   string
	files [len(journalFiles)]faultfs.File

	mu    sync.Mutex
	f     faultfs.File      // the journal file; nil while nothing is staged
	slots map[pageKey]int64 // staged page → index of its entry in f
	// whole: f has its trailer and is durable, the record files may be half
	// written. Until finish has succeeded, f is the only way to repair
	// them, and nothing else is done to it.
	whole bool
	buf   []byte // one entry
}

// stagedFile is the backing file record file number file's page cache
// sees: reads come from the record file unless the page is staged, writes
// only stage.
type stagedFile struct {
	j    *journal
	file int
}

func (f stagedFile) ReadAt(p []byte, off int64) (int, error)  { return f.j.read(f.file, p, off) }
func (f stagedFile) WriteAt(p []byte, off int64) (int, error) { return f.j.stage(f.file, p, off) }

// Sync does nothing: what was written is staged, and durable when the
// store's flush is.
func (f stagedFile) Sync() error  { return nil }
func (f stagedFile) Close() error { return f.j.files[f.file].Close() }

func (j *journal) read(file int, p []byte, off int64) (int, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if slot, ok := j.slots[pageKey{file, uint64(off) / pagecache.PageSize}]; ok {
		return j.f.ReadAt(p, slot*journalEntrySize+journalEntryHeader)
	}
	return j.files[file].ReadAt(p, off)
}

// stage puts one page into the journal, over the entry an earlier
// write-back of the same page left. (Should the write fail half way, the
// entry is garbage, but the cache keeps the page, dirty, and writes it
// again before any flush completes.)
func (j *journal) stage(file int, p []byte, off int64) (int, error) {
	if off%pagecache.PageSize != 0 || len(p) != pagecache.PageSize {
		return 0, fmt.Errorf("store: write of %d bytes at %d is not a page", len(p), off)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.finish(); err != nil {
		return 0, err
	}
	if j.f == nil {
		// O_EXCL: finish and Open remove a journal before the next is begun.
		f, err := j.fs.OpenFile(filepath.Join(j.dir, journalName), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
		if err != nil {
			return 0, fmt.Errorf("store: journal: %w", err)
		}
		j.f = f
	}
	key := pageKey{file, uint64(off) / pagecache.PageSize}
	slot, staged := j.slots[key]
	if !staged {
		slot = int64(len(j.slots))
	}
	j.buf = binary.LittleEndian.AppendUint32(j.buf[:0], uint32(file))
	j.buf = binary.LittleEndian.AppendUint64(j.buf, key.page)
	j.buf = binary.LittleEndian.AppendUint32(j.buf, crc32.Checksum(p, castagnoli))
	j.buf = append(j.buf, p...)
	if _, err := j.f.WriteAt(j.buf, slot*journalEntrySize); err != nil {
		return 0, fmt.Errorf("store: journal: %w", err)
	}
	j.slots[key] = slot
	return len(p), nil
}

// flush makes every staged page durable in its record file, all or none.
func (j *journal) flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.finish(); err != nil || j.f == nil {
		return err
	}
	j.buf = binary.LittleEndian.AppendUint32(j.buf[:0], journalMagic)
	j.buf = binary.LittleEndian.AppendUint32(j.buf, uint32(len(j.slots)))
	_, err := j.f.WriteAt(j.buf, int64(len(j.slots))*journalEntrySize)
	if err == nil {
		err = j.f.Sync()
	}
	if err == nil {
		err = syncDir(j.fs, j.dir) // the journal's name, too, outlives a crash from here on
	}
	if err != nil {
		return fmt.Errorf("store: journal: %w", err)
	}
	j.whole = true
	return j.finish()
}

// finish is the second half of a flush, and of the next operation's after
// a flush that failed in it: a whole journal's pages go into place, and
// the journal goes.
func (j *journal) finish() error {
	if !j.whole {
		return nil
	}
	if err := applyJournal(j.f, len(j.slots), j.files[:]); err != nil {
		return err
	}
	// Whether the removal outlives a crash does not matter: the next journal
	// is another file, and until it is whole the record files hold exactly
	// these pages.
	if err := j.fs.Remove(filepath.Join(j.dir, journalName)); err != nil {
		return fmt.Errorf("store: journal: %w", err)
	}
	j.f.Close()
	j.f, j.whole = nil, false
	j.slots = make(map[pageKey]int64) // not clear(): a big flush's buckets would stay
	return nil
}

// close lets go of a journal file that is not to be flushed, as a crash
// would: it stays where it is.
func (j *journal) close() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f != nil {
		j.f.Close()
		j.f = nil
	}
}

// applyJournal copies the n pages of the whole journal f into the record
// files and fsyncs those.
func applyJournal(f faultfs.File, n int, files []faultfs.File) error {
	buf := make([]byte, journalEntrySize)
	var written [len(journalFiles)]bool
	for i := 0; i < n; i++ {
		file, page, err := readJournalEntry(f, i, buf)
		if err != nil {
			return err
		}
		if _, err := files[file].WriteAt(buf[journalEntryHeader:], int64(page)*pagecache.PageSize); err != nil {
			return fmt.Errorf("store: flush %s: %w", journalFiles[file], err)
		}
		written[file] = true
	}
	for i, f := range files {
		if !written[i] {
			continue
		}
		if err := f.Sync(); err != nil {
			return fmt.Errorf("store: flush %s: %w", journalFiles[i], err)
		}
	}
	return nil
}

// readJournalEntry reads entry i of f into buf and checks it.
func readJournalEntry(f faultfs.File, i int, buf []byte) (file int, page uint64, err error) {
	if _, err := f.ReadAt(buf, int64(i)*journalEntrySize); err != nil {
		return 0, 0, fmt.Errorf("store: journal entry %d: %w", i, err)
	}
	file = int(binary.LittleEndian.Uint32(buf))
	if file >= len(journalFiles) || crc32.Checksum(buf[journalEntryHeader:], castagnoli) != binary.LittleEndian.Uint32(buf[12:]) {
		return 0, 0, fmt.Errorf("store: journal entry %d is corrupt", i)
	}
	return file, binary.LittleEndian.Uint64(buf[4:]), nil
}

// replayJournal finishes the flush a crash interrupted, if its journal is
// whole — replayed says it was — and removes the journal either way. It
// runs before the record files are opened.
func replayJournal(fs faultfs.FS, dir string) (replayed bool, err error) {
	path := filepath.Join(dir, journalName)
	f, err := fs.OpenFile(path, os.O_RDONLY, 0)
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("store: journal: %w", err)
	}
	defer f.Close()
	n, whole := journalEntries(f)
	if whole {
		var files [len(journalFiles)]faultfs.File
		for i, name := range journalFiles {
			if files[i], err = fs.OpenFile(filepath.Join(dir, name), os.O_RDWR|os.O_CREATE, 0o644); err != nil {
				return false, fmt.Errorf("store: journal replay: %w", err)
			}
			defer files[i].Close()
		}
		if err := applyJournal(f, n, files[:]); err != nil {
			return false, fmt.Errorf("store: journal replay: %w", err)
		}
	}
	if err := fs.Remove(path); err != nil {
		return false, fmt.Errorf("store: journal: %w", err)
	}
	return whole, nil
}

// journalEntries counts the entries of f and reports whether f is whole.
func journalEntries(f faultfs.File) (n int, whole bool) {
	st, err := f.Stat()
	if err != nil || st.Size() < journalTrailerSize || (st.Size()-journalTrailerSize)%journalEntrySize != 0 {
		return 0, false
	}
	n = int((st.Size() - journalTrailerSize) / journalEntrySize)
	buf := make([]byte, journalEntrySize)
	if _, err := f.ReadAt(buf[:journalTrailerSize], int64(n)*journalEntrySize); err != nil ||
		binary.LittleEndian.Uint32(buf) != journalMagic || binary.LittleEndian.Uint32(buf[4:]) != uint32(n) {
		return 0, false
	}
	for i := 0; i < n; i++ {
		if _, _, err := readJournalEntry(f, i, buf); err != nil {
			return 0, false
		}
	}
	return n, true
}

// syncDir fsyncs a directory, so that a file created in it is still there
// after a crash.
func syncDir(fs faultfs.FS, dir string) error {
	d, err := fs.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	d.Close()
	return err
}

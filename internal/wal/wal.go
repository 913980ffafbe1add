// Package wal implements the write-ahead log that makes commits durable.
// The paper's design persists only the newest committed version of each
// entity, written back lazily by a checkpointer; the WAL is what makes a
// commit durable in the window between commit and checkpoint.
//
// The log is a sequence of segment files, each named by the log sequence
// number (LSN) of its first record. A record is framed as
//
//	length:u32le  crc:u32le(castagnoli, over payload)  payload
//
// and an LSN is the global byte offset of a record's frame. Replay stops
// at the first torn or corrupt frame — everything before it was durable,
// everything after it never acknowledged.
//
// Commit durability is pipelined through the Batcher (group commit):
// committers append their record and park in WaitDurable until one shared
// fsync — issued by whichever committer leads the flush — covers their
// LSN, so N concurrent committers pay ~1 fsync instead of N.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"neograph/internal/faultfs"
)

// Options tune the log.
type Options struct {
	// SegmentSize is the byte size at which the active segment rotates.
	// Zero means DefaultSegmentSize.
	SegmentSize int64
	// NoSync disables fsync on Sync() calls — useful for benchmarks that
	// measure CPU cost rather than disk latency. Durability is lost.
	NoSync bool
	// FS is the file-system seam, nil meaning the real OS. Crash tests
	// substitute a faultfs.Injector to kill the log at scripted points.
	FS faultfs.FS
}

// DefaultSegmentSize rotates segments at 16 MiB.
const DefaultSegmentSize = 16 << 20

const frameHeader = 8 // length + crc

// maxKeptFrame is the largest frame buffer Append keeps for the next
// record: commits log a few hundred bytes, and one bulk load's record
// must not pin its size for the life of the log.
const maxKeptFrame = 64 << 10

// FrameOverhead is the number of framing bytes that precede each record's
// payload. A record appended at LSN l with payload p occupies the byte
// range [l, l+FrameOverhead+len(p)); the upper bound is the record's end
// position — the token replication and read-your-writes waiting use.
const FrameOverhead = frameHeader

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Errors.
var (
	ErrClosed   = errors.New("wal: closed")
	ErrTooLarge = errors.New("wal: record exceeds segment size")
	// ErrTruncated reports that a requested read position predates the
	// oldest retained segment (checkpointing removed it). A replica this
	// far behind cannot catch up from the log and must be re-seeded.
	ErrTruncated = errors.New("wal: position predates oldest retained segment")
	// ErrCanceled reports that a WaitShippable call was canceled.
	ErrCanceled  = errors.New("wal: wait canceled")
	errBadHeader = errors.New("wal: bad segment file name")
)

// WAL is an append-only segmented log. It is safe for concurrent use.
type WAL struct {
	mu      sync.Mutex
	dir     string
	fs      faultfs.FS
	opts    Options
	active  faultfs.File
	start   uint64 // LSN of the active segment's first byte
	size    int64  // bytes written to the active segment
	nextLSN uint64
	closed  bool
	// syncMu serialises Sync's fsync+bookkeeping (lock order: syncMu then
	// mu). The kernel reports a writeback error once per fd, so two
	// overlapping fsyncs would race on who observes it — serialised,
	// non-overlapping fsyncs make a nil result trustworthy: a clean fsync
	// covers everything appended before it started, and any concurrent
	// seal fsync (rotation/Close, under mu) publishes failErr before this
	// caller's bookkeeping can run. Appends never take syncMu, so the log
	// keeps filling while a flush is in flight.
	syncMu sync.Mutex
	// failErr is a sticky failure — of an fsync (from Sync, rotation, or
	// Close's seal sync), or of the rewind after a failed write. The kernel
	// reports a writeback error once per fd and may drop the dirty pages,
	// so after any failed fsync no later fsync can be trusted to mean the
	// earlier records are durable; and a segment that could not be rewound
	// no longer ends where the log does. Either way the log is poisoned:
	// every subsequent Append/Sync fails with this error.
	failErr error
	// durable is the durability horizon: every byte below it has been
	// covered by a successful fsync (or was found on disk at Open). It is
	// the position replication ships up to — a replica never applies a
	// record its primary could still lose.
	durable uint64
	// frame is Append's reused buffer: a record's header and payload are
	// assembled in it and written with one call. Guarded by mu.
	frame []byte
	// appendFailures counts appends whose write failed (and was rewound).
	appendFailures atomic.Uint64
	// notifyC, when non-nil, is closed whenever the shippable horizon
	// advances (durable moves, or any append under NoSync) and at Close,
	// waking WaitShippable callers. Lazily created by the first waiter.
	notifyC chan struct{}
}

// Open opens (creating if needed) the log in dir. Existing segments are
// scanned to find the next LSN; a trailing torn record is truncated away.
func Open(dir string, opts Options) (*WAL, error) {
	if opts.SegmentSize <= 0 {
		opts.SegmentSize = DefaultSegmentSize
	}
	fs := faultfs.OrOS(opts.FS)
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: mkdir: %w", err)
	}
	w := &WAL{dir: dir, fs: fs, opts: opts}
	segs, err := listSegments(fs, dir)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		if err := w.rotateLocked(0); err != nil {
			return nil, err
		}
		return w, nil
	}
	// Validate the last segment and truncate any torn tail.
	last := segs[len(segs)-1]
	validLen, err := validLength(fs, filepath.Join(dir, segmentName(last)))
	if err != nil {
		return nil, err
	}
	f, err := fs.OpenFile(filepath.Join(dir, segmentName(last)), os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open segment: %w", err)
	}
	if err := f.Truncate(validLen); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: truncate torn tail: %w", err)
	}
	if _, err := f.Seek(0, 2); err != nil {
		f.Close()
		return nil, err
	}
	w.active = f
	w.start = last
	w.size = validLen
	w.nextLSN = last + uint64(validLen)
	// Everything that survived on disk is, by definition, durable.
	w.durable = w.nextLSN
	return w, nil
}

// wakeLocked wakes WaitShippable callers. Caller holds w.mu.
func (w *WAL) wakeLocked() {
	if w.notifyC != nil {
		close(w.notifyC)
		w.notifyC = nil
	}
}

// markDurableLocked advances the durability horizon. Caller holds w.mu.
func (w *WAL) markDurableLocked(pos uint64) {
	if pos > w.durable {
		w.durable = pos
		w.wakeLocked()
	}
}

// shippableLocked is the horizon up to which records may be shipped to a
// replica: the durable position, or — when fsync is disabled and nothing
// is ever formally durable — everything appended. Caller holds w.mu.
func (w *WAL) shippableLocked() uint64 {
	if w.opts.NoSync {
		return w.nextLSN
	}
	return w.durable
}

// segmentName renders the canonical file name for a segment starting at lsn.
func segmentName(lsn uint64) string { return fmt.Sprintf("wal-%020d.log", lsn) }

// parseSegmentName extracts the starting LSN from a segment file name.
func parseSegmentName(name string) (uint64, error) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
		return 0, errBadHeader
	}
	n, err := strconv.ParseUint(name[4:len(name)-4], 10, 64)
	if err != nil {
		return 0, errBadHeader
	}
	return n, nil
}

// listSegments returns the starting LSNs of all segments in dir, sorted.
func listSegments(fs faultfs.FS, dir string) ([]uint64, error) {
	entries, err := fs.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: readdir: %w", err)
	}
	var segs []uint64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if lsn, err := parseSegmentName(e.Name()); err == nil {
			segs = append(segs, lsn)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return segs, nil
}

// validLength scans a segment and returns the byte length of its valid
// prefix (up to but excluding the first torn/corrupt frame).
func validLength(fs faultfs.FS, path string) (int64, error) {
	data, err := fs.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("wal: scan %s: %w", path, err)
	}
	off := int64(0)
	for {
		if int64(len(data))-off < frameHeader {
			return off, nil
		}
		length := binary.LittleEndian.Uint32(data[off:])
		crc := binary.LittleEndian.Uint32(data[off+4:])
		end := off + frameHeader + int64(length)
		if end > int64(len(data)) {
			return off, nil
		}
		if crc32.Checksum(data[off+frameHeader:end], castagnoli) != crc {
			return off, nil
		}
		off = end
	}
}

// rotateLocked opens a fresh segment starting at lsn. Caller holds w.mu
// (or is the constructor).
func (w *WAL) rotateLocked(lsn uint64) error {
	if w.active != nil {
		if !w.opts.NoSync {
			if err := w.active.Sync(); err != nil {
				w.failErr = err
				return err
			}
			// The seal fsync covered every record appended so far.
			w.markDurableLocked(w.nextLSN)
		}
		if err := w.active.Close(); err != nil {
			return err
		}
	}
	f, err := w.fs.OpenFile(filepath.Join(w.dir, segmentName(lsn)), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	w.active = f
	w.start = lsn
	w.size = 0
	w.nextLSN = lsn
	return nil
}

// Append writes one record and returns its LSN. The record is durable
// only after a subsequent Sync (or if the OS flushes sooner).
func (w *WAL) Append(payload []byte) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, ErrClosed
	}
	if w.failErr != nil {
		return 0, fmt.Errorf("wal: log poisoned by an earlier failure: %w", w.failErr)
	}
	frame := int64(frameHeader + len(payload))
	if frame > w.opts.SegmentSize {
		return 0, fmt.Errorf("%w: %d bytes", ErrTooLarge, len(payload))
	}
	if w.size+frame > w.opts.SegmentSize {
		if err := w.rotateLocked(w.nextLSN); err != nil {
			return 0, err
		}
	}
	lsn := w.nextLSN
	// Header and payload go out as one write: one system call inside the
	// caller's ordering section, and no failure can fall between them.
	w.frame = binary.LittleEndian.AppendUint32(w.frame[:0], uint32(len(payload)))
	w.frame = binary.LittleEndian.AppendUint32(w.frame, crc32.Checksum(payload, castagnoli))
	w.frame = append(w.frame, payload...)
	_, err := w.active.Write(w.frame)
	if cap(w.frame) > maxKeptFrame {
		w.frame = nil
	}
	if err != nil {
		// Part of the frame may have reached the file (a full disk): put the
		// file back to the log's end, or the next record would land behind
		// the stray bytes, at an LSN that is not its offset, and a reopen
		// would cut the log — acknowledged records and all — at the stray.
		w.appendFailures.Add(1)
		rerr := w.active.Truncate(w.size)
		if rerr == nil {
			_, rerr = w.active.Seek(w.size, io.SeekStart)
		}
		if rerr != nil {
			w.failErr = fmt.Errorf("append failed (%v) and the segment could not be rewound: %w", err, rerr)
		}
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	w.size += frame
	w.nextLSN += uint64(frame)
	if w.opts.NoSync {
		// With fsync disabled the shippable horizon is the append horizon.
		w.wakeLocked()
	}
	return lsn, nil
}

// Sync makes all records appended before the call durable. The fsync runs
// outside the log mutex so concurrent Appends proceed while the disk
// works — this is what lets group commit accumulate a batch during the
// in-flight flush.
func (w *WAL) Sync() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrClosed
	}
	if w.failErr != nil {
		err := w.failErr
		w.mu.Unlock()
		return fmt.Errorf("wal: log poisoned by an earlier failure: %w", err)
	}
	if w.opts.NoSync {
		w.mu.Unlock()
		return nil
	}
	if w.durable >= w.nextLSN {
		// Everything appended is already durable: an fsync would prove
		// nothing new. This keeps idle replicas (whose applier fsyncs on
		// every sync-requested heartbeat) from hammering the disk when no
		// records have arrived.
		w.mu.Unlock()
		return nil
	}
	f := w.active
	// Records appended before this point are covered by the fsync below;
	// later appends may be too, but this is the bound we can prove.
	target := w.nextLSN
	w.mu.Unlock()
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	err := f.Sync()
	w.mu.Lock()
	defer w.mu.Unlock()
	if err == nil {
		// A concurrent seal fsync (rotation/Close) may have consumed the
		// kernel's once-per-fd writeback error and set failErr while we
		// were syncing — our nil then proves nothing about those records.
		if w.failErr != nil {
			return fmt.Errorf("wal: log poisoned by an earlier failure: %w", w.failErr)
		}
		w.markDurableLocked(target)
		return nil
	}
	// The segment may have been sealed while we synced: rotation and Close
	// both fsync the active file before closing it, so a "file already
	// closed" failure on a no-longer-active handle means the records are
	// already durable — unless that seal fsync itself failed (failErr), in
	// which case durability was lost and the error must surface.
	if (w.active != f || w.closed) && w.failErr == nil && errors.Is(err, os.ErrClosed) {
		return nil
	}
	if w.failErr != nil {
		return fmt.Errorf("wal: log poisoned by an earlier failure: %w", w.failErr)
	}
	w.failErr = err
	return err
}

// AppendFailures counts the appends whose write to the segment failed.
func (w *WAL) AppendFailures() uint64 { return w.appendFailures.Load() }

// NextLSN returns the LSN the next Append will receive.
func (w *WAL) NextLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextLSN
}

// ForEach replays every record in LSN order, calling fn(lsn, payload).
// The payload slice is only valid during the call. Iteration stops early
// if fn returns an error, which is propagated.
func (w *WAL) ForEach(fn func(lsn uint64, payload []byte) error) error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrClosed
	}
	if !w.opts.NoSync {
		// Make sure buffered appends are visible to the reader below.
		if err := w.active.Sync(); err != nil {
			w.mu.Unlock()
			return err
		}
	}
	segs, err := listSegments(w.fs, w.dir)
	w.mu.Unlock()
	if err != nil {
		return err
	}
	for _, start := range segs {
		data, err := w.fs.ReadFile(filepath.Join(w.dir, segmentName(start)))
		if err != nil {
			return fmt.Errorf("wal: replay: %w", err)
		}
		if _, err := scanFrames(data, start, 0, ^uint64(0), false, fn); err != nil {
			return err
		}
	}
	return nil
}

// scanFrames iterates the frames in one segment's bytes, starting at byte
// offset off, calling fn(lsn, payload) for every record whose LSN is below
// stop. In strict mode a torn or corrupt frame is an error; otherwise it
// ends the scan silently (replay semantics: the torn tail was never
// acknowledged). Returns the offset one past the last frame consumed.
func scanFrames(data []byte, segStart uint64, off int64, stop uint64, strict bool, fn func(lsn uint64, payload []byte) error) (int64, error) {
	for {
		lsn := segStart + uint64(off)
		if lsn >= stop {
			return off, nil
		}
		if int64(len(data))-off < frameHeader {
			if strict && int64(len(data)) != off {
				return off, fmt.Errorf("wal: torn frame header at lsn %d", lsn)
			}
			return off, nil
		}
		length := binary.LittleEndian.Uint32(data[off:])
		crc := binary.LittleEndian.Uint32(data[off+4:])
		end := off + frameHeader + int64(length)
		if end > int64(len(data)) || crc32.Checksum(data[off+frameHeader:end], castagnoli) != crc {
			if strict {
				return off, fmt.Errorf("wal: corrupt frame at lsn %d", lsn)
			}
			return off, nil // torn tail
		}
		if err := fn(lsn, data[off+frameHeader:end]); err != nil {
			return off, err
		}
		off = end
	}
}

// DurableLSN returns the durability horizon: the position one past the
// last byte known to be fsynced (with NoSync, one past the last append).
func (w *WAL) DurableLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.shippableLocked()
}

// StartLSN returns the base position of the oldest retained segment.
// Records below it have been truncated away and can no longer be
// shipped; a replica asking to resume from an earlier position must be
// re-seeded from a snapshot instead.
func (w *WAL) StartLSN() (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, ErrClosed
	}
	segs, err := listSegments(w.fs, w.dir)
	if err != nil {
		return 0, err
	}
	if len(segs) == 0 {
		return w.start, nil
	}
	return segs[0], nil
}

// WaitShippable blocks until the shippable horizon advances past `after`,
// a timeout elapses (timeout > 0), or cancel is closed. It returns the
// current horizon — on timeout possibly still equal to `after` (callers
// use the timeout path to emit heartbeats). The returned error is
// ErrClosed after Close, ErrCanceled on cancel, or the sticky fsync
// poison (no further records can ever become durable).
func (w *WAL) WaitShippable(after uint64, timeout time.Duration, cancel <-chan struct{}) (uint64, error) {
	var timerC <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timerC = t.C
	}
	for {
		w.mu.Lock()
		pos := w.shippableLocked()
		switch {
		case pos > after:
			w.mu.Unlock()
			return pos, nil
		case w.closed:
			w.mu.Unlock()
			return pos, ErrClosed
		case w.failErr != nil:
			err := w.failErr
			w.mu.Unlock()
			return pos, fmt.Errorf("wal: log poisoned by an earlier failure: %w", err)
		}
		if w.notifyC == nil {
			w.notifyC = make(chan struct{})
		}
		c := w.notifyC
		w.mu.Unlock()
		select {
		case <-c:
		case <-timerC:
			return w.DurableLSN(), nil
		case <-cancel:
			return pos, ErrCanceled
		}
	}
}

// ReadRange replays every record with from <= lsn < to in order, reusing
// ForEach's frame decoding. Both bounds must be frame boundaries (record
// LSNs or record end positions); `to` must not exceed the shippable
// horizon. Unlike ForEach, a torn or corrupt frame inside the range is an
// error — the caller asked for records that are claimed durable. Returns
// ErrTruncated when `from` predates the oldest retained segment.
func (w *WAL) ReadRange(from, to uint64, fn func(lsn uint64, payload []byte) error) error {
	if from >= to {
		return nil
	}
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrClosed
	}
	segs, err := listSegments(w.fs, w.dir)
	w.mu.Unlock()
	if err != nil {
		return err
	}
	// The segment holding `from` is the last one starting at or before it.
	first := -1
	for i, s := range segs {
		if s <= from {
			first = i
		} else {
			break
		}
	}
	if first < 0 {
		return fmt.Errorf("%w: want %d, oldest segment starts later", ErrTruncated, from)
	}
	pos := from
	for i := first; i < len(segs) && segs[i] < to; i++ {
		// Read only the [pos, to) window of the segment — the live tail
		// ships small batches out of a large active segment, and loading
		// the whole file per batch would make shipping O(segment size).
		data, err := readSegmentRange(w.fs, filepath.Join(w.dir, segmentName(segs[i])), segs[i], pos, to)
		if err != nil {
			return err
		}
		end, err := scanFrames(data, pos, 0, to, true, fn)
		if err != nil {
			return err
		}
		pos += uint64(end)
	}
	if pos < to {
		return fmt.Errorf("wal: read range ends at %d, want %d", pos, to)
	}
	return nil
}

// readSegmentRange returns the segment's bytes from position pos up to at
// most position to (both global LSNs; the segment starts at segStart).
func readSegmentRange(fs faultfs.FS, path string, segStart, pos, to uint64) ([]byte, error) {
	f, err := fs.Open(path)
	if err != nil {
		return nil, fmt.Errorf("wal: read range: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("wal: read range: %w", err)
	}
	off := int64(0)
	if segStart < pos {
		off = int64(pos - segStart)
		if off > st.Size() {
			return nil, fmt.Errorf("wal: read range: position %d beyond segment %d", pos, segStart)
		}
	}
	n := st.Size() - off
	if max := int64(to - (segStart + uint64(off))); n > max {
		n = max
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(io.NewSectionReader(f, off, n), buf); err != nil {
		return nil, fmt.Errorf("wal: read range: %w", err)
	}
	return buf, nil
}

// Rotate closes the active segment and starts a fresh one at the current
// LSN. Checkpoints rotate before truncating so the segment holding
// pre-checkpoint records becomes removable.
func (w *WAL) Rotate() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if w.size == 0 {
		return nil // fresh segment already
	}
	return w.rotateLocked(w.nextLSN)
}

// TruncateBefore removes whole segments that end at or before lsn —
// called after a checkpoint has made their contents redundant. The
// segment containing lsn is kept.
func (w *WAL) TruncateBefore(lsn uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	segs, err := listSegments(w.fs, w.dir)
	if err != nil {
		return err
	}
	for i, start := range segs {
		// A segment may be removed if the next segment starts at or before
		// lsn (so this whole segment is < lsn) and it is not active.
		if i+1 >= len(segs) || segs[i+1] > lsn || start == w.start {
			continue
		}
		if err := w.fs.Remove(filepath.Join(w.dir, segmentName(start))); err != nil {
			return fmt.Errorf("wal: truncate: %w", err)
		}
	}
	return nil
}

// Size returns the total byte size of all live segments.
func (w *WAL) Size() (int64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	segs, err := listSegments(w.fs, w.dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, s := range segs {
		st, err := w.fs.Stat(filepath.Join(w.dir, segmentName(s)))
		if err != nil {
			return 0, err
		}
		total += st.Size()
	}
	return total, nil
}

// Close syncs and closes the active segment.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	w.closed = true
	defer w.wakeLocked() // waiters must observe closed
	if !w.opts.NoSync {
		if err := w.active.Sync(); err != nil {
			w.failErr = err
			w.active.Close()
			return err
		}
		w.markDurableLocked(w.nextLSN)
	}
	return w.active.Close()
}

package repl

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"path"
	"path/filepath"
	"strings"
	"time"

	"neograph/internal/core"
	"neograph/internal/faultfs"
)

// reseedTmpDir is the staging directory a joiner downloads the snapshot
// into before swapping it into place.
const reseedTmpDir = "reseed.tmp"

// reseedChunkSize is one snapshot data frame's payload.
const reseedChunkSize = 256 << 10

// handleReseed serves one snapshot request: checkpoint, then stream every
// store file, the epoch history, and the retained WAL while maintMu
// freezes them in place. Commits keep flowing — they only append beyond
// the snapshot's end LSN.
func (s *Shipper) handleReseed(conn net.Conn) {
	log := s.log.With("joiner", conn.RemoteAddr().String())
	bw := bufio.NewWriterSize(conn, 256<<10)
	sendErr := func(msg string) {
		log.Warn("refusing snapshot", "reason", msg)
		conn.SetWriteDeadline(time.Now().Add(s.opts.WriteTimeout))
		writeFrame(bw, frameError, 0, []byte(msg))
		bw.Flush()
	}

	var endLSN uint64
	var files, bytes int64
	started := time.Now()
	err := s.e.WithSnapshot(func(snap []core.SnapshotFile, end uint64) error {
		endLSN = end
		var cnt [4]byte
		binary.LittleEndian.PutUint32(cnt[:], uint32(len(snap)))
		conn.SetWriteDeadline(time.Now().Add(s.opts.WriteTimeout))
		if err := writeFrame(bw, frameSnapBegin, end, cnt[:]); err != nil {
			return err
		}
		fs := s.e.FS()
		dir := s.e.Dir()
		buf := make([]byte, reseedChunkSize)
		for _, sf := range snap {
			if err := writeFrame(bw, frameSnapFile, uint64(sf.Size), []byte(sf.Rel)); err != nil {
				return err
			}
			f, err := fs.Open(filepath.Join(dir, filepath.FromSlash(sf.Rel)))
			if err != nil {
				return fmt.Errorf("repl: snapshot open %s: %w", sf.Rel, err)
			}
			remaining := sf.Size
			for remaining > 0 {
				n := int64(len(buf))
				if remaining < n {
					n = remaining
				}
				if _, err := io.ReadFull(f, buf[:n]); err != nil {
					f.Close()
					return fmt.Errorf("repl: snapshot read %s: %w", sf.Rel, err)
				}
				conn.SetWriteDeadline(time.Now().Add(s.opts.WriteTimeout))
				if err := writeFrame(bw, frameSnapChunk, 0, buf[:n]); err != nil {
					f.Close()
					return err
				}
				remaining -= n
			}
			f.Close()
			files++
			bytes += sf.Size
		}
		if err := writeFrame(bw, frameSnapEnd, end, nil); err != nil {
			return err
		}
		return bw.Flush()
	})
	if err != nil {
		sendErr(err.Error())
		return
	}
	// Hold WAL truncation at the snapshot's end until the joiner comes
	// back as a streaming replica (its connection then holds retention
	// itself) or the hold times out.
	s.mu.Lock()
	if !s.closed {
		s.reseedFloors[endLSN] = time.Now().Add(s.opts.ReseedRetainFor)
	}
	s.mu.Unlock()
	log.Info("snapshot served", "end_lsn", endLSN, "files", files,
		"bytes", bytes, "elapsed", time.Since(started))
}

// FetchOptions tune a snapshot fetch.
type FetchOptions struct {
	// DialTimeout bounds the connection attempt. Zero means 5s.
	DialTimeout time.Duration
	// ReadTimeout bounds the wait for any single frame. Zero means 30s.
	ReadTimeout time.Duration
	// Logger receives fetch progress; nil is silent.
	Logger *slog.Logger
}

// ReseedStats reports what a snapshot fetch shipped.
type ReseedStats struct {
	// EndLSN is the snapshot's WAL end — the position the re-seeded
	// replica resumes streaming from.
	EndLSN uint64
	// Files and Bytes count the shipped snapshot.
	Files int
	Bytes int64
	// Duration is the wall-clock fetch+swap time.
	Duration time.Duration
}

// FetchSnapshot replaces dir's contents with a consistent snapshot
// fetched from the primary's replication address. The engine owning dir
// must be closed. The swap is crash-safe: the snapshot lands in a
// staging dir first, and a marker file (core.ReseedMarkerName) brackets
// the destructive phase — a crash before the marker leaves the old dir
// intact, a crash inside it leaves the marker, which core.Open refuses,
// so the caller wipes and fetches again. Only after every new file and
// the directory itself are fsynced is the marker removed.
func FetchSnapshot(dir string, fsys faultfs.FS, primaryAddr string, opts FetchOptions) (ReseedStats, error) {
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = 5 * time.Second
	}
	if opts.ReadTimeout <= 0 {
		opts.ReadTimeout = 30 * time.Second
	}
	fsys = faultfs.OrOS(fsys)
	log := cmp.Or(opts.Logger, slog.New(slog.DiscardHandler)).With("component", "repl.reseed", "primary", primaryAddr)
	started := time.Now()

	tmp := filepath.Join(dir, reseedTmpDir)
	if err := removeTree(fsys, tmp); err != nil {
		return ReseedStats{}, fmt.Errorf("repl: reseed: clear staging dir: %w", err)
	}
	if err := fsys.MkdirAll(filepath.Join(tmp, "wal"), 0o755); err != nil {
		return ReseedStats{}, fmt.Errorf("repl: reseed: staging dir: %w", err)
	}

	stats, err := downloadSnapshot(tmp, fsys, primaryAddr, opts)
	if err != nil {
		return ReseedStats{}, err
	}
	log.Info("snapshot downloaded", "end_lsn", stats.EndLSN, "files", stats.Files, "bytes", stats.Bytes)

	if err := swapSnapshot(dir, tmp, fsys); err != nil {
		return ReseedStats{}, err
	}
	stats.Duration = time.Since(started)
	log.Info("snapshot swapped into place", "elapsed", stats.Duration)
	return stats, nil
}

// downloadSnapshot streams the snapshot into the staging dir, fsyncing
// every file and the staging directories themselves.
func downloadSnapshot(tmp string, fsys faultfs.FS, primaryAddr string, opts FetchOptions) (ReseedStats, error) {
	conn, err := net.DialTimeout("tcp", primaryAddr, opts.DialTimeout)
	if err != nil {
		return ReseedStats{}, fmt.Errorf("repl: reseed dial: %w", err)
	}
	defer conn.Close()
	conn.SetWriteDeadline(time.Now().Add(opts.DialTimeout))
	if err := writeHandshake(conn, modeReseed, 0, 0, 0); err != nil {
		return ReseedStats{}, fmt.Errorf("repl: reseed handshake: %w", err)
	}
	conn.SetWriteDeadline(time.Time{})

	br := bufio.NewReaderSize(conn, 256<<10)
	buf := make([]byte, reseedChunkSize)
	conn.SetReadDeadline(time.Now().Add(opts.ReadTimeout))
	typ, endLSN, payload, err := readFrame(br, buf)
	if err != nil {
		return ReseedStats{}, fmt.Errorf("repl: reseed: %w", err)
	}
	if typ == frameError {
		return ReseedStats{}, fmt.Errorf("repl: primary refused snapshot: %s", payload)
	}
	if typ != frameSnapBegin || len(payload) != 4 {
		return ReseedStats{}, fmt.Errorf("repl: reseed: unexpected frame %q before snapshot begin", typ)
	}
	count := binary.LittleEndian.Uint32(payload)

	stats := ReseedStats{EndLSN: endLSN}
	for i := uint32(0); i < count; i++ {
		conn.SetReadDeadline(time.Now().Add(opts.ReadTimeout))
		typ, size, payload, err := readFrame(br, buf)
		if err != nil {
			return ReseedStats{}, fmt.Errorf("repl: reseed: %w", err)
		}
		if typ == frameError {
			return ReseedStats{}, fmt.Errorf("repl: primary aborted snapshot: %s", payload)
		}
		if typ != frameSnapFile {
			return ReseedStats{}, fmt.Errorf("repl: reseed: unexpected frame %q, want file header", typ)
		}
		rel := string(payload)
		if err := validateSnapshotRel(rel); err != nil {
			return ReseedStats{}, err
		}
		if err := receiveFile(fsys, filepath.Join(tmp, filepath.FromSlash(rel)), int64(size), conn, br, buf, opts.ReadTimeout); err != nil {
			return ReseedStats{}, err
		}
		stats.Files++
		stats.Bytes += int64(size)
	}
	conn.SetReadDeadline(time.Now().Add(opts.ReadTimeout))
	typ, _, payload, err = readFrame(br, buf)
	if err != nil {
		return ReseedStats{}, fmt.Errorf("repl: reseed: %w", err)
	}
	if typ == frameError {
		return ReseedStats{}, fmt.Errorf("repl: primary aborted snapshot: %s", payload)
	}
	if typ != frameSnapEnd {
		return ReseedStats{}, fmt.Errorf("repl: reseed: unexpected frame %q, want snapshot end", typ)
	}
	if err := syncDir(fsys, filepath.Join(tmp, "wal")); err != nil {
		return stats, err
	}
	if err := syncDir(fsys, tmp); err != nil {
		return stats, err
	}
	return stats, nil
}

// validateSnapshotRel rejects hostile snapshot paths: only "epoch",
// "neostore.*" and "wal/<segment>" may land in the staging dir.
func validateSnapshotRel(rel string) error {
	if rel == "" || path.Clean(rel) != rel || strings.HasPrefix(rel, "/") || strings.Contains(rel, "..") {
		return fmt.Errorf("repl: reseed: unsafe snapshot path %q", rel)
	}
	d, base := path.Split(rel)
	switch {
	case d == "" && (base == "epoch" || strings.HasPrefix(base, "neostore.")):
		return nil
	case d == "wal/" && strings.HasPrefix(base, "wal-") && strings.HasSuffix(base, ".log"):
		return nil
	}
	return fmt.Errorf("repl: reseed: unexpected snapshot path %q", rel)
}

// receiveFile writes one snapshot file from chunk frames and fsyncs it.
func receiveFile(fsys faultfs.FS, dst string, size int64, conn net.Conn, br *bufio.Reader, buf []byte, readTimeout time.Duration) error {
	f, err := fsys.OpenFile(dst, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("repl: reseed create %s: %w", dst, err)
	}
	remaining := size
	for remaining > 0 {
		conn.SetReadDeadline(time.Now().Add(readTimeout))
		typ, _, payload, err := readFrame(br, buf)
		if err != nil {
			f.Close()
			return fmt.Errorf("repl: reseed: %w", err)
		}
		if typ == frameError {
			f.Close()
			return fmt.Errorf("repl: primary aborted snapshot: %s", payload)
		}
		if typ != frameSnapChunk || int64(len(payload)) > remaining {
			f.Close()
			return fmt.Errorf("repl: reseed: unexpected frame %q mid-file", typ)
		}
		if _, err := f.Write(payload); err != nil {
			f.Close()
			return fmt.Errorf("repl: reseed write %s: %w", dst, err)
		}
		remaining -= int64(len(payload))
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("repl: reseed sync %s: %w", dst, err)
	}
	return f.Close()
}

// swapSnapshot replaces dir's data files with the staged snapshot. The
// marker brackets the destructive phase; see FetchSnapshot.
func swapSnapshot(dir, tmp string, fsys faultfs.FS) error {
	marker := filepath.Join(dir, core.ReseedMarkerName)
	mf, err := fsys.OpenFile(marker, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("repl: reseed marker: %w", err)
	}
	if err := mf.Sync(); err != nil {
		mf.Close()
		return fmt.Errorf("repl: reseed marker sync: %w", err)
	}
	if err := mf.Close(); err != nil {
		return fmt.Errorf("repl: reseed marker close: %w", err)
	}
	if err := syncDir(fsys, dir); err != nil {
		return err
	}

	// Destructive phase: remove the old data files, then rename the new
	// ones into place. A crash anywhere in here leaves the marker, and
	// core.Open refuses the dir until a fresh fetch completes the swap.
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("repl: reseed readdir: %w", err)
	}
	for _, ent := range entries {
		name := ent.Name()
		switch {
		case name == reseedTmpDir || name == core.ReseedMarkerName:
			continue
		case ent.IsDir() && name == "wal":
			if err := removeTree(fsys, filepath.Join(dir, name)); err != nil {
				return fmt.Errorf("repl: reseed remove old wal: %w", err)
			}
		case !ent.IsDir() && (name == "epoch" || name == "epoch.tmp" || strings.HasPrefix(name, "neostore.")):
			if err := fsys.Remove(filepath.Join(dir, name)); err != nil {
				return fmt.Errorf("repl: reseed remove %s: %w", name, err)
			}
		}
	}
	staged, err := fsys.ReadDir(tmp)
	if err != nil {
		return fmt.Errorf("repl: reseed readdir staging: %w", err)
	}
	if err := fsys.MkdirAll(filepath.Join(dir, "wal"), 0o755); err != nil {
		return fmt.Errorf("repl: reseed mkdir wal: %w", err)
	}
	for _, ent := range staged {
		name := ent.Name()
		if ent.IsDir() {
			if name != "wal" {
				continue
			}
			segs, err := fsys.ReadDir(filepath.Join(tmp, "wal"))
			if err != nil {
				return fmt.Errorf("repl: reseed readdir staged wal: %w", err)
			}
			for _, seg := range segs {
				if err := fsys.Rename(filepath.Join(tmp, "wal", seg.Name()), filepath.Join(dir, "wal", seg.Name())); err != nil {
					return fmt.Errorf("repl: reseed install %s: %w", seg.Name(), err)
				}
			}
			continue
		}
		if err := fsys.Rename(filepath.Join(tmp, name), filepath.Join(dir, name)); err != nil {
			return fmt.Errorf("repl: reseed install %s: %w", name, err)
		}
	}
	if err := syncDir(fsys, filepath.Join(dir, "wal")); err != nil {
		return err
	}
	if err := syncDir(fsys, dir); err != nil {
		return err
	}
	if err := fsys.Remove(marker); err != nil {
		return fmt.Errorf("repl: reseed remove marker: %w", err)
	}
	if err := syncDir(fsys, dir); err != nil {
		return err
	}
	return removeTree(fsys, tmp)
}

// syncDir fsyncs a directory so renames and removals in it are durable.
func syncDir(fsys faultfs.FS, dir string) error {
	d, err := fsys.Open(dir)
	if err != nil {
		return fmt.Errorf("repl: reseed open dir %s: %w", dir, err)
	}
	err = d.Sync()
	d.Close()
	if err != nil {
		return fmt.Errorf("repl: reseed sync dir %s: %w", dir, err)
	}
	return nil
}

// removeTree removes path and everything under it through the faultfs
// seam (os.RemoveAll would bypass fault injection). A missing path is
// not an error.
func removeTree(fsys faultfs.FS, path string) error {
	st, err := fsys.Stat(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	if st.IsDir() {
		entries, err := fsys.ReadDir(path)
		if err != nil {
			return err
		}
		for _, ent := range entries {
			if err := removeTree(fsys, filepath.Join(path, ent.Name())); err != nil {
				return err
			}
		}
	}
	return fsys.Remove(path)
}

package faultfs

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

// Mode selects what happens when an armed fault's crash point fires.
type Mode uint8

// Fault modes.
const (
	// ModeCrash models a process kill at the point: the triggering
	// operation fails with ErrCrashed having done nothing, and so does
	// every later operation on the injector.
	ModeCrash Mode = iota
	// ModeTornWrite models a kill mid-write: a prefix of the triggering
	// write (Fault.TornBytes) reaches the file before the crash.
	ModeTornWrite
	// ModeShortRead truncates the triggering read once; the injector
	// stays alive (a corrupt-tail / partial-page model, not a kill).
	ModeShortRead
	// ModeSyncFail fails the triggering fsync once with ErrSyncFailed;
	// the injector stays alive (the kernel-writeback-error model that
	// must poison the WAL).
	ModeSyncFail
	// ModeWriteFail fails the triggering write once with ErrWriteFailed
	// after a prefix of it (Fault.TornBytes) reached the file; the
	// injector stays alive (the disk-full model: the process survives and
	// must leave the file as if the write had never begun).
	ModeWriteFail
	// ModeHold parks the triggering operation until Release, then lets it
	// run; Held's channel closes when it parks. Tests use it to stop a
	// goroutine at a known point instead of sleeping.
	ModeHold
)

// Errors injected by faults.
var (
	// ErrCrashed is returned by every operation at and after an injected
	// crash.
	ErrCrashed = errors.New("faultfs: injected crash")
	// ErrSyncFailed is the one-shot fsync failure of ModeSyncFail.
	ErrSyncFailed = errors.New("faultfs: injected fsync failure")
	// ErrWriteFailed is the one-shot write failure of ModeWriteFail.
	ErrWriteFailed = errors.New("faultfs: injected write failure")
)

// Fault is one scripted fault: fire Mode at the Hit'th time crash point
// Point is reached.
type Fault struct {
	// Point is "<label>.<op>", e.g. "wal.write" or "wal.sync".
	Point string
	// Hit is the 1-based occurrence of Point that triggers the fault.
	Hit int
	// Mode selects the failure behaviour at the point.
	Mode Mode
	// TornBytes is how many bytes of the triggering write survive under
	// ModeTornWrite and ModeWriteFail (clamped to the write size); -1 means
	// half the write.
	// Under ModeShortRead it is the byte length the read is cut to.
	TornBytes int
	// HoldThenFail makes a released ModeHold operation fail as under
	// ModeSyncFail: a held fsync returns ErrSyncFailed.
	HoldThenFail bool
}

// Injector wraps an FS, counts every operation as a "<label>.<op>" crash
// point, and fires at most one armed Fault. It is safe for concurrent
// use; with a single-threaded write workload the write/sync hit counts
// are deterministic, which is what the crash-matrix tests rely on.
type Injector struct {
	inner FS
	label func(path string) string

	mu      sync.Mutex
	hits    map[string]int
	fault   *Fault
	crashed bool
	fired   bool
	// held closes when a ModeHold fault parks its operation; release
	// lets it go. Arm makes both afresh.
	held, release chan struct{}
}

// NewInjector wraps inner with fault injection. label classifies paths
// into crash-point labels; nil means DefaultLabel.
func NewInjector(inner FS, label func(path string) string) *Injector {
	if label == nil {
		label = DefaultLabel
	}
	return &Injector{inner: inner, label: label, hits: make(map[string]int),
		held: make(chan struct{}), release: make(chan struct{})}
}

// Arm schedules f to fire; it replaces any previous fault and clears the
// crashed state and hit counts (one Injector can drive repeated runs).
func (i *Injector) Arm(f Fault) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.fault = &f
	i.crashed = false
	i.fired = false
	i.hits = make(map[string]int)
	i.held, i.release = make(chan struct{}), make(chan struct{})
}

// Held returns a channel that closes when the armed ModeHold fault parks
// its operation.
func (i *Injector) Held() <-chan struct{} {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.held
}

// Release lets the operation parked by the armed ModeHold fault run on;
// before the hold is reached it lets that operation straight through.
func (i *Injector) Release() {
	i.mu.Lock()
	defer i.mu.Unlock()
	select {
	case <-i.release:
	default:
		close(i.release)
	}
}

// Counts snapshots the per-point hit counts recorded so far — the crash
// point registry a matrix test enumerates.
func (i *Injector) Counts() map[string]int {
	i.mu.Lock()
	defer i.mu.Unlock()
	out := make(map[string]int, len(i.hits))
	for k, v := range i.hits {
		out[k] = v
	}
	return out
}

// Crashed reports whether an injected crash has fired.
func (i *Injector) Crashed() bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.crashed
}

// Fired reports whether the armed fault has triggered (any mode).
func (i *Injector) Fired() bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.fired
}

// at records one hit of point and decides the fault action. The returned
// fault is non-nil exactly when the armed fault fires here; err is
// non-nil when the operation must fail outright (crashed state, or a
// ModeCrash firing). A firing ModeHold parks here until Release.
func (i *Injector) at(point string) (*Fault, error) {
	i.mu.Lock()
	if i.crashed {
		i.mu.Unlock()
		return nil, ErrCrashed
	}
	i.hits[point]++
	f := i.fault
	if f == nil || i.fired || f.Point != point || i.hits[point] != f.Hit {
		i.mu.Unlock()
		return nil, nil
	}
	i.fired = true
	switch f.Mode {
	case ModeCrash:
		i.crashed = true
		i.mu.Unlock()
		return f, ErrCrashed
	case ModeTornWrite:
		i.crashed = true // the write helper persists the prefix first
	case ModeHold:
		held, release := i.held, i.release
		i.mu.Unlock()
		close(held)
		<-release
		if f.HoldThenFail {
			return &Fault{Mode: ModeSyncFail}, nil
		}
		return f, nil
	}
	i.mu.Unlock()
	return f, nil
}

func (i *Injector) pt(path, op string) string { return i.label(path) + "." + op }

// ---- FS methods ----

// OpenFile counts "<label>.open" and opens through the inner FS.
func (i *Injector) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if _, err := i.at(i.pt(name, "open")); err != nil {
		return nil, err
	}
	f, err := i.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &injFile{inj: i, label: i.label(name), inner: f}, nil
}

// Open counts "<label>.open" and opens read-only.
func (i *Injector) Open(name string) (File, error) {
	if _, err := i.at(i.pt(name, "open")); err != nil {
		return nil, err
	}
	f, err := i.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &injFile{inj: i, label: i.label(name), inner: f}, nil
}

// ReadFile counts "<label>.read"; ModeShortRead truncates the result.
func (i *Injector) ReadFile(name string) ([]byte, error) {
	f, err := i.at(i.pt(name, "read"))
	if err != nil {
		return nil, err
	}
	data, rerr := i.inner.ReadFile(name)
	if rerr != nil {
		return data, rerr
	}
	if f != nil && f.Mode == ModeShortRead {
		return data[:shortLen(f.TornBytes, len(data))], nil
	}
	return data, nil
}

// ReadDir counts "<label>.readdir".
func (i *Injector) ReadDir(name string) ([]os.DirEntry, error) {
	if _, err := i.at(i.pt(name, "readdir")); err != nil {
		return nil, err
	}
	return i.inner.ReadDir(name)
}

// Remove counts "<label>.remove".
func (i *Injector) Remove(name string) error {
	if _, err := i.at(i.pt(name, "remove")); err != nil {
		return err
	}
	return i.inner.Remove(name)
}

// Rename counts "<label>.rename" (keyed by the destination path).
func (i *Injector) Rename(oldpath, newpath string) error {
	if _, err := i.at(i.pt(newpath, "rename")); err != nil {
		return err
	}
	return i.inner.Rename(oldpath, newpath)
}

// MkdirAll counts "<label>.mkdir".
func (i *Injector) MkdirAll(path string, perm os.FileMode) error {
	if _, err := i.at(i.pt(path, "mkdir")); err != nil {
		return err
	}
	return i.inner.MkdirAll(path, perm)
}

// Stat is not a crash point (it neither reads data nor mutates), but a
// crashed injector still fails it.
func (i *Injector) Stat(name string) (os.FileInfo, error) {
	i.mu.Lock()
	crashed := i.crashed
	i.mu.Unlock()
	if crashed {
		return nil, ErrCrashed
	}
	return i.inner.Stat(name)
}

// ---- file wrapper ----

// injFile routes one file's operations through the injector.
type injFile struct {
	inj   *Injector
	label string
	inner File
}

// write is the shared Write/WriteAt fault logic: under ModeTornWrite and
// ModeWriteFail the surviving prefix is written through before the error
// returns — the crash error, or the one the process lives to handle.
func (f *injFile) write(buf []byte, do func([]byte) (int, error)) (int, error) {
	ft, err := f.inj.at(f.label + ".write")
	if err != nil {
		return 0, err
	}
	if ft != nil && (ft.Mode == ModeTornWrite || ft.Mode == ModeWriteFail) {
		n := 0
		if keep := shortLen(ft.TornBytes, len(buf)); keep > 0 {
			n, _ = do(buf[:keep])
		}
		if ft.Mode == ModeWriteFail {
			return n, fmt.Errorf("%w (%d of %d bytes written)", ErrWriteFailed, n, len(buf))
		}
		return n, fmt.Errorf("%w: torn write (%d of %d bytes)", ErrCrashed, n, len(buf))
	}
	return do(buf)
}

func (f *injFile) Write(p []byte) (int, error) {
	return f.write(p, f.inner.Write)
}

func (f *injFile) WriteAt(p []byte, off int64) (int, error) {
	return f.write(p, func(b []byte) (int, error) { return f.inner.WriteAt(b, off) })
}

func (f *injFile) Read(p []byte) (int, error) {
	ft, err := f.inj.at(f.label + ".read")
	if err != nil {
		return 0, err
	}
	if ft != nil && ft.Mode == ModeShortRead {
		n, rerr := f.inner.Read(p[:shortLen(ft.TornBytes, len(p))])
		if rerr == nil {
			rerr = io.ErrUnexpectedEOF
		}
		return n, rerr
	}
	return f.inner.Read(p)
}

func (f *injFile) ReadAt(p []byte, off int64) (int, error) {
	ft, err := f.inj.at(f.label + ".read")
	if err != nil {
		return 0, err
	}
	if ft != nil && ft.Mode == ModeShortRead {
		n, rerr := f.inner.ReadAt(p[:shortLen(ft.TornBytes, len(p))], off)
		if rerr == nil {
			rerr = io.ErrUnexpectedEOF
		}
		return n, rerr
	}
	return f.inner.ReadAt(p, off)
}

func (f *injFile) Seek(offset int64, whence int) (int64, error) {
	if f.inj.Crashed() {
		return 0, ErrCrashed
	}
	return f.inner.Seek(offset, whence)
}

func (f *injFile) Sync() error {
	ft, err := f.inj.at(f.label + ".sync")
	if err != nil {
		return err
	}
	if ft != nil && ft.Mode == ModeSyncFail {
		return ErrSyncFailed
	}
	return f.inner.Sync()
}

func (f *injFile) Truncate(size int64) error {
	if _, err := f.inj.at(f.label + ".truncate"); err != nil {
		return err
	}
	return f.inner.Truncate(size)
}

// Close always closes the inner file (a crashed "process" still releases
// its descriptors) and never counts as a crash point.
func (f *injFile) Close() error { return f.inner.Close() }

func (f *injFile) Stat() (os.FileInfo, error) {
	if f.inj.Crashed() {
		return nil, ErrCrashed
	}
	return f.inner.Stat()
}

func (f *injFile) Name() string { return f.inner.Name() }

// shortLen resolves a Fault.TornBytes against the operation size: -1
// keeps half, anything else is clamped to [0, n].
func shortLen(torn, n int) int {
	if torn < 0 {
		return n / 2
	}
	if torn > n {
		return n
	}
	return torn
}

package faultfs

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func mustWrite(t *testing.T, f File, data []byte) {
	t.Helper()
	if _, err := f.Write(data); err != nil {
		t.Fatalf("write: %v", err)
	}
}

func openSeg(t *testing.T, fs FS, path string) File {
	t.Helper()
	f, err := fs.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return f
}

func TestDefaultLabel(t *testing.T) {
	cases := map[string]string{
		"/x/wal/wal-00000000000000000000.log": "wal",
		"/x/wal":                              "wal",
		"/x/neostore.nodes.db":                "store",
		"/x/epoch":                            "epoch",
		"/x/epoch.tmp":                        "epoch",
		"/x/other.bin":                        "fs",
	}
	for path, want := range cases {
		if got := DefaultLabel(path); got != want {
			t.Errorf("DefaultLabel(%q) = %q, want %q", path, got, want)
		}
	}
}

func TestInjectorCountsAndRecording(t *testing.T) {
	dir := t.TempDir()
	inj := NewInjector(OS{}, nil)
	seg := filepath.Join(dir, "wal-00000000000000000000.log")
	f := openSeg(t, inj, seg)
	mustWrite(t, f, []byte("one"))
	mustWrite(t, f, []byte("two"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := inj.ReadFile(seg); err != nil {
		t.Fatal(err)
	}
	counts := inj.Counts()
	want := map[string]int{"wal.open": 1, "wal.write": 2, "wal.sync": 1, "wal.read": 1}
	for k, v := range want {
		if counts[k] != v {
			t.Errorf("counts[%q] = %d, want %d (all: %v)", k, counts[k], v, counts)
		}
	}
	if inj.Fired() || inj.Crashed() {
		t.Fatal("recording pass must not fire or crash")
	}
}

func TestInjectorCrashAtWrite(t *testing.T) {
	dir := t.TempDir()
	inj := NewInjector(OS{}, nil)
	inj.Arm(Fault{Point: "wal.write", Hit: 2, Mode: ModeCrash})
	seg := filepath.Join(dir, "wal-00000000000000000000.log")
	f := openSeg(t, inj, seg)
	mustWrite(t, f, []byte("survives"))
	if _, err := f.Write([]byte("lost")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("second write err = %v, want ErrCrashed", err)
	}
	if !inj.Crashed() {
		t.Fatal("injector not crashed after ModeCrash fired")
	}
	// Every later operation fails too — the process is dead.
	if err := f.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash sync err = %v", err)
	}
	if _, err := inj.OpenFile(seg, os.O_RDWR, 0o644); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash open err = %v", err)
	}
	if _, err := inj.ReadFile(seg); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash read err = %v", err)
	}
	f.Close()
	// Only the pre-crash bytes reached the file.
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "survives" {
		t.Fatalf("file holds %q, want %q", data, "survives")
	}
}

func TestInjectorTornWrite(t *testing.T) {
	dir := t.TempDir()
	inj := NewInjector(OS{}, nil)
	inj.Arm(Fault{Point: "wal.write", Hit: 2, Mode: ModeTornWrite, TornBytes: 3})
	seg := filepath.Join(dir, "wal-00000000000000000000.log")
	f := openSeg(t, inj, seg)
	mustWrite(t, f, []byte("head"))
	n, err := f.Write([]byte("torntail"))
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("torn write err = %v, want ErrCrashed", err)
	}
	if n != 3 {
		t.Fatalf("torn write persisted %d bytes, want 3", n)
	}
	f.Close()
	data, _ := os.ReadFile(seg)
	if string(data) != "headtor" {
		t.Fatalf("file holds %q, want %q", data, "headtor")
	}
	if !inj.Crashed() {
		t.Fatal("torn write must leave the injector crashed")
	}
}

func TestInjectorTornWriteHalf(t *testing.T) {
	dir := t.TempDir()
	inj := NewInjector(OS{}, nil)
	inj.Arm(Fault{Point: "wal.write", Hit: 1, Mode: ModeTornWrite, TornBytes: -1})
	f := openSeg(t, inj, filepath.Join(dir, "wal-00000000000000000000.log"))
	n, err := f.Write([]byte("12345678"))
	if !errors.Is(err, ErrCrashed) || n != 4 {
		t.Fatalf("half torn write = (%d, %v), want (4, ErrCrashed)", n, err)
	}
	f.Close()
}

func TestInjectorShortRead(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal-00000000000000000000.log")
	if err := os.WriteFile(path, []byte("full contents"), 0o644); err != nil {
		t.Fatal(err)
	}
	inj := NewInjector(OS{}, nil)
	inj.Arm(Fault{Point: "wal.read", Hit: 1, Mode: ModeShortRead, TornBytes: 4})
	data, err := inj.ReadFile(path)
	if err != nil || string(data) != "full" {
		t.Fatalf("short read = (%q, %v), want (\"full\", nil)", data, err)
	}
	if inj.Crashed() {
		t.Fatal("short read must not crash the injector")
	}
	// One-shot: the next read is whole.
	data, err = inj.ReadFile(path)
	if err != nil || string(data) != "full contents" {
		t.Fatalf("second read = (%q, %v)", data, err)
	}
	// ReadAt variant reports the truncation.
	f, err := inj.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	inj.Arm(Fault{Point: "wal.read", Hit: 1, Mode: ModeShortRead, TornBytes: 2})
	buf := make([]byte, 8)
	n, err := f.ReadAt(buf, 0)
	if n != 2 || (err != io.ErrUnexpectedEOF && err != io.EOF) {
		t.Fatalf("short ReadAt = (%d, %v), want 2 bytes + unexpected EOF", n, err)
	}
}

func TestInjectorSyncFail(t *testing.T) {
	dir := t.TempDir()
	inj := NewInjector(OS{}, nil)
	inj.Arm(Fault{Point: "wal.sync", Hit: 1, Mode: ModeSyncFail})
	f := openSeg(t, inj, filepath.Join(dir, "wal-00000000000000000000.log"))
	defer f.Close()
	mustWrite(t, f, []byte("x"))
	if err := f.Sync(); !errors.Is(err, ErrSyncFailed) {
		t.Fatalf("sync err = %v, want ErrSyncFailed", err)
	}
	if inj.Crashed() {
		t.Fatal("ModeSyncFail must not crash the injector")
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("second sync err = %v, want nil", err)
	}
}

func TestInjectorWriteFail(t *testing.T) {
	dir := t.TempDir()
	inj := NewInjector(OS{}, nil)
	inj.Arm(Fault{Point: "wal.write", Hit: 2, Mode: ModeWriteFail, TornBytes: 3})
	seg := filepath.Join(dir, "wal-00000000000000000000.log")
	f := openSeg(t, inj, seg)
	defer f.Close()
	mustWrite(t, f, []byte("head"))
	if n, err := f.Write([]byte("partial")); !errors.Is(err, ErrWriteFailed) || n != 3 {
		t.Fatalf("failing write = (%d, %v), want (3, ErrWriteFailed)", n, err)
	}
	if inj.Crashed() {
		t.Fatal("ModeWriteFail must not crash the injector")
	}
	// One-shot, and the process lives on: it can see the stray prefix and
	// take it back.
	if data, _ := os.ReadFile(seg); string(data) != "headpar" {
		t.Fatalf("file holds %q, want %q", data, "headpar")
	}
	if err := f.Truncate(4); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(4, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	mustWrite(t, f, []byte("tail"))
	if data, _ := os.ReadFile(seg); string(data) != "headtail" {
		t.Fatalf("file holds %q, want %q", data, "headtail")
	}
}

func TestInjectorCrashAtSync(t *testing.T) {
	dir := t.TempDir()
	inj := NewInjector(OS{}, nil)
	inj.Arm(Fault{Point: "wal.sync", Hit: 2, Mode: ModeCrash})
	f := openSeg(t, inj, filepath.Join(dir, "wal-00000000000000000000.log"))
	defer f.Close()
	mustWrite(t, f, []byte("x"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	mustWrite(t, f, []byte("y"))
	if err := f.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("second sync err = %v, want ErrCrashed", err)
	}
	if _, err := f.Write([]byte("z")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash write err = %v", err)
	}
}

func TestArmResetsState(t *testing.T) {
	dir := t.TempDir()
	inj := NewInjector(OS{}, nil)
	inj.Arm(Fault{Point: "wal.write", Hit: 1, Mode: ModeCrash})
	f := openSeg(t, inj, filepath.Join(dir, "wal-00000000000000000000.log"))
	if _, err := f.Write([]byte("a")); !errors.Is(err, ErrCrashed) {
		t.Fatal("fault did not fire")
	}
	f.Close()
	// Re-arming clears the crash so the injector can drive the next run.
	inj.Arm(Fault{Point: "wal.write", Hit: 99, Mode: ModeCrash})
	if inj.Crashed() {
		t.Fatal("Arm must clear crashed state")
	}
	f2 := openSeg(t, inj, filepath.Join(dir, "wal-00000000000000000001.log"))
	defer f2.Close()
	mustWrite(t, f2, []byte("b"))
	if got := inj.Counts()["wal.write"]; got != 1 {
		t.Fatalf("Arm must reset counts, got %d", got)
	}
}

func TestInjectorHold(t *testing.T) {
	dir := t.TempDir()
	inj := NewInjector(OS{}, nil)
	inj.Arm(Fault{Point: "wal.sync", Hit: 2, Mode: ModeHold})
	f := openSeg(t, inj, filepath.Join(dir, "wal-00000000000000000000.log"))
	defer f.Close()
	if err := f.Sync(); err != nil { // the first sync passes
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- f.Sync() }()
	<-inj.Held()
	select {
	case err := <-done:
		t.Fatalf("held sync returned %v before Release", err)
	default:
	}
	inj.Release()
	if err := <-done; err != nil {
		t.Fatalf("released sync err = %v", err)
	}
	if inj.Crashed() {
		t.Fatal("ModeHold must not crash the injector")
	}
	inj.Release() // a second Release is harmless
}

// A held fsync armed with HoldThenFail fails once on release, as under
// ModeSyncFail.
func TestInjectorHoldThenFail(t *testing.T) {
	dir := t.TempDir()
	inj := NewInjector(OS{}, nil)
	inj.Arm(Fault{Point: "wal.sync", Hit: 1, Mode: ModeHold, HoldThenFail: true})
	f := openSeg(t, inj, filepath.Join(dir, "wal-00000000000000000000.log"))
	defer f.Close()
	done := make(chan error, 1)
	go func() { done <- f.Sync() }()
	<-inj.Held()
	inj.Release()
	if err := <-done; !errors.Is(err, ErrSyncFailed) {
		t.Fatalf("held sync released failing = %v, want ErrSyncFailed", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("next sync = %v, want nil (the failure is one-shot)", err)
	}
}

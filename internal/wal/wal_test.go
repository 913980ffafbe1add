package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"neograph/internal/faultfs"
)

func openTestWAL(t *testing.T, opts Options) (*WAL, string) {
	t.Helper()
	dir := t.TempDir()
	w, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return w, dir
}

func collect(t *testing.T, w *WAL) (lsns []uint64, payloads []string) {
	t.Helper()
	err := w.ForEach(func(lsn uint64, p []byte) error {
		lsns = append(lsns, lsn)
		payloads = append(payloads, string(p))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return
}

func TestAppendReplay(t *testing.T) {
	w, _ := openTestWAL(t, Options{})
	defer w.Close()
	var want []string
	for i := 0; i < 10; i++ {
		p := fmt.Sprintf("record-%d", i)
		if _, err := w.Append([]byte(p)); err != nil {
			t.Fatal(err)
		}
		want = append(want, p)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	_, got := collect(t, w)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestLSNsMonotonic(t *testing.T) {
	w, _ := openTestWAL(t, Options{})
	defer w.Close()
	var prev uint64
	for i := 0; i < 20; i++ {
		lsn, err := w.Append([]byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && lsn <= prev {
			t.Fatalf("lsn %d not > previous %d", lsn, prev)
		}
		prev = lsn
	}
	if w.NextLSN() <= prev {
		t.Fatal("NextLSN must exceed last append")
	}
}

func TestReopenContinues(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	w.Append([]byte("one"))
	w.Append([]byte("two"))
	w.Close()

	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	w2.Append([]byte("three"))
	_, got := collect(t, w2)
	if len(got) != 3 || got[0] != "one" || got[2] != "three" {
		t.Fatalf("replay after reopen: %v", got)
	}
}

func TestSegmentRotation(t *testing.T) {
	w, dir := openTestWAL(t, Options{SegmentSize: 64})
	defer w.Close()
	for i := 0; i < 20; i++ {
		if _, err := w.Append([]byte("0123456789")); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := listSegments(faultfs.OS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected rotation, got %d segments", len(segs))
	}
	_, got := collect(t, w)
	if len(got) != 20 {
		t.Fatalf("replayed %d records across segments, want 20", len(got))
	}
}

func TestRecordTooLarge(t *testing.T) {
	w, _ := openTestWAL(t, Options{SegmentSize: 32})
	defer w.Close()
	if _, err := w.Append(make([]byte, 64)); err == nil {
		t.Fatal("oversized record should fail")
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	w.Append([]byte("good-one"))
	w.Append([]byte("good-two"))
	w.Close()

	// Corrupt the tail: append a valid-looking header with garbage payload.
	segs, _ := listSegments(faultfs.OS{}, dir)
	path := filepath.Join(dir, segmentName(segs[0]))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{10, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 'j', 'u', 'n', 'k'})
	f.Close()

	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	_, got := collect(t, w2)
	if len(got) != 2 || got[1] != "good-two" {
		t.Fatalf("after torn tail: %v", got)
	}
	// New appends land where the valid prefix ended.
	if _, err := w2.Append([]byte("post-crash")); err != nil {
		t.Fatal(err)
	}
	_, got = collect(t, w2)
	if len(got) != 3 || got[2] != "post-crash" {
		t.Fatalf("appends after truncation: %v", got)
	}
}

func TestTruncateBefore(t *testing.T) {
	w, dir := openTestWAL(t, Options{SegmentSize: 64})
	defer w.Close()
	var lsns []uint64
	for i := 0; i < 30; i++ {
		lsn, err := w.Append([]byte("0123456789"))
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	before, _ := listSegments(faultfs.OS{}, dir)
	if err := w.TruncateBefore(lsns[len(lsns)-1]); err != nil {
		t.Fatal(err)
	}
	after, _ := listSegments(faultfs.OS{}, dir)
	if len(after) >= len(before) {
		t.Fatalf("no segments removed: %d -> %d", len(before), len(after))
	}
	// Remaining records still replay and include the newest.
	_, got := collect(t, w)
	if len(got) == 0 || len(got) >= 30 {
		t.Fatalf("replay after truncate: %d records", len(got))
	}
}

func TestSize(t *testing.T) {
	w, _ := openTestWAL(t, Options{})
	defer w.Close()
	s0, err := w.Size()
	if err != nil {
		t.Fatal(err)
	}
	w.Append(make([]byte, 100))
	s1, _ := w.Size()
	if s1 <= s0 {
		t.Fatalf("size did not grow: %d -> %d", s0, s1)
	}
}

func TestClosedErrors(t *testing.T) {
	w, _ := openTestWAL(t, Options{})
	w.Close()
	if _, err := w.Append([]byte("x")); err != ErrClosed {
		t.Fatalf("Append after close = %v", err)
	}
	if err := w.Sync(); err != ErrClosed {
		t.Fatalf("Sync after close = %v", err)
	}
	if err := w.Close(); err != ErrClosed {
		t.Fatalf("double Close = %v", err)
	}
}

func TestConcurrentAppend(t *testing.T) {
	w, _ := openTestWAL(t, Options{NoSync: true})
	defer w.Close()
	var wg sync.WaitGroup
	const goroutines, perG = 8, 100
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if _, err := w.Append([]byte(fmt.Sprintf("g%d-%d", g, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	_, got := collect(t, w)
	if len(got) != goroutines*perG {
		t.Fatalf("replayed %d, want %d", len(got), goroutines*perG)
	}
}

func TestEmptyPayload(t *testing.T) {
	w, _ := openTestWAL(t, Options{})
	defer w.Close()
	if _, err := w.Append(nil); err != nil {
		t.Fatal(err)
	}
	_, got := collect(t, w)
	if len(got) != 1 || got[0] != "" {
		t.Fatalf("empty payload replay: %q", got)
	}
}

func TestDurableLSNAdvances(t *testing.T) {
	w, _ := openTestWAL(t, Options{})
	defer w.Close()
	if got := w.DurableLSN(); got != 0 {
		t.Fatalf("fresh log durable = %d", got)
	}
	lsn, err := w.Append([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if got := w.DurableLSN(); got != 0 {
		t.Fatalf("durable advanced before sync: %d", got)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	end := lsn + FrameOverhead + 5
	if got := w.DurableLSN(); got != end {
		t.Fatalf("durable = %d, want %d", got, end)
	}
	if got := w.NextLSN(); got != end {
		t.Fatalf("next = %d, want %d", got, end)
	}
}

func TestDurableSurvivesReopen(t *testing.T) {
	w, dir := openTestWAL(t, Options{})
	w.Append([]byte("one"))
	w.Append([]byte("two"))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if w2.DurableLSN() != w2.NextLSN() {
		t.Fatalf("reopened log: durable %d != next %d", w2.DurableLSN(), w2.NextLSN())
	}
}

func TestReadRange(t *testing.T) {
	// Small segments so the range spans sealed segments plus the active one.
	w, _ := openTestWAL(t, Options{SegmentSize: 64})
	defer w.Close()
	var lsns []uint64
	for i := 0; i < 12; i++ {
		lsn, err := w.Append([]byte(fmt.Sprintf("record-%02d", i)))
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	to := w.DurableLSN()

	// Full range.
	var got []uint64
	err := w.ReadRange(0, to, func(lsn uint64, p []byte) error {
		got = append(got, lsn)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(lsns) {
		t.Fatalf("read %d records, want %d", len(got), len(lsns))
	}
	for i := range lsns {
		if got[i] != lsns[i] {
			t.Fatalf("lsn[%d] = %d, want %d", i, got[i], lsns[i])
		}
	}

	// Mid-log start at a record boundary inside a later segment.
	got = got[:0]
	err = w.ReadRange(lsns[7], to, func(lsn uint64, p []byte) error {
		got = append(got, lsn)
		if string(p) != fmt.Sprintf("record-%02d", 7+len(got)-1) {
			t.Errorf("payload at %d = %q", lsn, p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("read %d records from lsn[7], want 5", len(got))
	}

	// Empty range is a no-op.
	if err := w.ReadRange(to, to, func(uint64, []byte) error { t.Fatal("called"); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestReadRangeTruncated(t *testing.T) {
	w, _ := openTestWAL(t, Options{SegmentSize: 64})
	defer w.Close()
	for i := 0; i < 12; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("record-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	cut := w.NextLSN()
	w.Append([]byte("tail"))
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.TruncateBefore(cut); err != nil {
		t.Fatal(err)
	}
	err := w.ReadRange(0, w.DurableLSN(), func(uint64, []byte) error { return nil })
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	// Reading from the cut still works.
	n := 0
	if err := w.ReadRange(cut, w.DurableLSN(), func(uint64, []byte) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("read %d records after cut, want 1", n)
	}
}

func TestWaitShippable(t *testing.T) {
	w, _ := openTestWAL(t, Options{})
	defer w.Close()

	// Already-shippable data returns immediately.
	w.Append([]byte("x"))
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	pos, err := w.WaitShippable(0, 0, nil)
	if err != nil || pos != w.DurableLSN() {
		t.Fatalf("WaitShippable = %d, %v", pos, err)
	}

	// A blocked waiter is woken by a later sync.
	after := w.DurableLSN()
	done := make(chan uint64, 1)
	go func() {
		pos, err := w.WaitShippable(after, 0, nil)
		if err != nil {
			t.Error(err)
		}
		done <- pos
	}()
	w.Append([]byte("y"))
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if pos := <-done; pos != w.DurableLSN() {
		t.Fatalf("woken at %d, want %d", pos, w.DurableLSN())
	}

	// Timeout returns without error even with no new data.
	pos, err = w.WaitShippable(w.DurableLSN(), time.Millisecond, nil)
	if err != nil || pos != w.DurableLSN() {
		t.Fatalf("timeout wait = %d, %v", pos, err)
	}

	// Cancel unblocks with ErrCanceled.
	cancel := make(chan struct{})
	close(cancel)
	if _, err := w.WaitShippable(w.DurableLSN(), 0, cancel); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

func TestWaitShippableClosedWakes(t *testing.T) {
	w, _ := openTestWAL(t, Options{})
	done := make(chan error, 1)
	go func() {
		_, err := w.WaitShippable(1<<40, 0, nil)
		done <- err
	}()
	// Let the waiter park, then close.
	for i := 0; i < 100; i++ {
		runtime.Gosched()
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestNoSyncShippableIsAppendHorizon(t *testing.T) {
	w, _ := openTestWAL(t, Options{NoSync: true})
	defer w.Close()
	lsn, err := w.Append([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if got := w.DurableLSN(); got != lsn+FrameOverhead+1 {
		t.Fatalf("NoSync durable = %d, want %d", got, lsn+FrameOverhead+1)
	}
}

// A write that fails having put part of a frame in the file (a full disk)
// must leave the log as if it had never begun: the next record lands at
// the position the log reports for it, and a reopen finds every record
// appended — and fsynced, and acknowledged — after the failure. Before
// the rewind the stray bytes stayed, the next record sat behind them at
// an LSN that was not its offset, and the reopen cut the log at the stray.
func TestFailedAppendLeavesNoStrayBytes(t *testing.T) {
	for _, stray := range []int{3, frameHeader, -1} { // part of the header, all of it, half the frame
		t.Run(fmt.Sprint(stray), func(t *testing.T) {
			inj := faultfs.NewInjector(faultfs.OS{}, nil)
			w, dir := openTestWAL(t, Options{FS: inj})
			first, err := w.Append([]byte("first"))
			if err != nil {
				t.Fatal(err)
			}
			inj.Arm(faultfs.Fault{Point: "wal.write", Hit: 1, Mode: faultfs.ModeWriteFail, TornBytes: stray})
			end := w.NextLSN()
			if _, err := w.Append([]byte("second")); !errors.Is(err, faultfs.ErrWriteFailed) {
				t.Fatalf("Append over a failing write: %v, want ErrWriteFailed", err)
			}
			if w.NextLSN() != end || w.AppendFailures() != 1 {
				t.Fatalf("after the failure: NextLSN %d (was %d), %d failures counted", w.NextLSN(), end, w.AppendFailures())
			}
			third, err := w.Append([]byte("third"))
			if err != nil || third != end {
				t.Fatalf("Append after the failure = %d, %v; want lsn %d", third, err, end)
			}
			if err := w.Sync(); err != nil {
				t.Fatal(err)
			}
			// A reader of the durable range — the replication shipper — sees
			// the two records and nothing between them.
			var shipped []string
			err = w.ReadRange(first, w.DurableLSN(), func(_ uint64, p []byte) error {
				shipped = append(shipped, string(p))
				return nil
			})
			if err != nil || fmt.Sprint(shipped) != "[first third]" {
				t.Fatalf("ReadRange = %v, %v", shipped, err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			w, err = Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			lsns, got := collect(t, w)
			if fmt.Sprint(got) != "[first third]" || lsns[1] != third {
				t.Fatalf("after reopen: records %v at %v; the fsynced %q at %d must survive", got, lsns, "third", third)
			}
		})
	}
}

// When the rewind after a failed write fails too, the segment no longer
// ends where the log does: nothing more may be appended to it.
func TestFailedRewindPoisonsTheLog(t *testing.T) {
	inj := faultfs.NewInjector(faultfs.OS{}, nil)
	w, _ := openTestWAL(t, Options{FS: inj})
	defer w.Close()
	// The write is torn by a crash, so the truncate that follows fails.
	inj.Arm(faultfs.Fault{Point: "wal.write", Hit: 1, Mode: faultfs.ModeTornWrite, TornBytes: 5})
	if _, err := w.Append([]byte("lost")); err == nil {
		t.Fatal("Append over a torn write succeeded")
	}
	inj.Arm(faultfs.Fault{}) // the file system is back; the log must not be
	if _, err := w.Append([]byte("later")); err == nil {
		t.Fatal("Append succeeded on a segment that holds stray bytes")
	}
	if err := w.Sync(); err == nil {
		t.Fatal("Sync succeeded on a poisoned log")
	}
}

// One record, one write: the header does not go out on its own.
func TestAppendIsOneWrite(t *testing.T) {
	inj := faultfs.NewInjector(faultfs.OS{}, nil)
	w, _ := openTestWAL(t, Options{FS: inj})
	defer w.Close()
	const n = 50
	for i := 0; i < n; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("record-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := inj.Counts()["wal.write"]; got != n {
		t.Fatalf("%d appends took %d writes", n, got)
	}
}

package repl_test

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"neograph/internal/core"
	"neograph/internal/repl"
	"neograph/internal/value"
)

// openPrimary opens a primary engine with small WAL segments so tests
// exercise multi-segment catch-up.
func openPrimary(t *testing.T, dir string) *core.Engine {
	t.Helper()
	e, err := core.Open(core.Options{Dir: dir, WALSegmentSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func openReplica(t *testing.T, dir string) *core.Engine {
	t.Helper()
	e, err := core.Open(core.Options{Dir: dir, Replica: true, WALSegmentSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// commitNode writes one node on e and returns (id, commit position).
func commitNode(t *testing.T, e *core.Engine, label string, v int64) (uint64, uint64) {
	t.Helper()
	tx := e.Begin()
	id, err := tx.CreateNode([]string{label}, value.Map{"v": value.Int(v)})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return id, tx.CommitLSN()
}

func countLabel(t *testing.T, e *core.Engine, label string) int {
	t.Helper()
	tx := e.Begin()
	defer tx.Abort()
	ids, err := tx.NodesByLabel(label)
	if err != nil {
		t.Fatal(err)
	}
	return len(ids)
}

// waitConverged polls until the replica's applied position reaches the
// primary's durable horizon.
func waitConverged(t *testing.T, a *repl.Applier, p *core.Engine) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		want := p.DurableLSN()
		if got := a.AppliedLSN(); got >= want && want > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at %d, primary durable %d (status %+v)",
				a.AppliedLSN(), p.DurableLSN(), a.Status())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func fastApplier(t *testing.T, e *core.Engine, addr string) *repl.Applier {
	t.Helper()
	a, err := repl.NewApplier(e, addr, repl.ApplierOptions{
		RetryMin: 10 * time.Millisecond,
		RetryMax: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	return a
}

// TestReplicationEndToEnd is the integration scenario from the issue: a
// replica cold-starts against a primary that already has sealed WAL
// segments, catches up, streams live commits, serves read-your-writes at
// the returned LSN token, and after a primary crash+restart reconnects
// and converges to the primary's durable position.
func TestReplicationEndToEnd(t *testing.T) {
	pdir, rdir := t.TempDir(), t.TempDir()
	primary := openPrimary(t, pdir)

	// Phase 1: history before the replica exists — enough to seal several
	// 2 KiB segments.
	const warm = 200
	for i := 0; i < warm; i++ {
		commitNode(t, primary, "Warm", int64(i))
	}
	if n, err := primary.WAL().Size(); err != nil || n < 3*2048 {
		t.Fatalf("want multiple sealed segments, wal size %d (%v)", n, err)
	}

	ship, err := repl.NewShipper(primary, "127.0.0.1:0", repl.ShipperOptions{
		HeartbeatEvery: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr := ship.Addr()

	// Phase 2: cold start + catch-up.
	replica := openReplica(t, rdir)
	applier := fastApplier(t, replica, addr)
	waitConverged(t, applier, primary)
	if got := countLabel(t, replica, "Warm"); got != warm {
		t.Fatalf("replica sees %d Warm nodes, want %d", got, warm)
	}

	// Phase 3: live streaming + read-your-writes.
	id, pos := commitNode(t, primary, "Live", 42)
	if pos == 0 {
		t.Fatal("commit returned no LSN token")
	}
	if err := applier.WaitApplied(pos, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	rtx := replica.Begin()
	snap, err := rtx.GetNode(id)
	if err != nil {
		t.Fatalf("read-your-writes read: %v", err)
	}
	if v, _ := snap.Props["v"].AsInt(); v != 42 {
		t.Fatalf("read-your-writes value = %v", snap.Props["v"])
	}
	rtx.Abort()

	// Replica-local writes must be rejected.
	wtx := replica.Begin()
	if _, err := wtx.CreateNode([]string{"X"}, nil); err != nil {
		t.Fatal(err)
	}
	if err := wtx.Commit(); !errors.Is(err, core.ErrReadOnlyReplica) {
		t.Fatalf("replica commit err = %v, want ErrReadOnlyReplica", err)
	}

	// Phase 4: primary crash + restart; replica reconnects and converges.
	ship.Close()
	if err := primary.Crash(); err != nil {
		t.Fatal(err)
	}
	primary = openPrimary(t, pdir)
	defer primary.Close()
	ship2, err := repl.NewShipper(primary, addr, repl.ShipperOptions{
		HeartbeatEvery: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ship2.Close()
	for i := 0; i < 10; i++ {
		commitNode(t, primary, "PostCrash", int64(i))
	}
	waitConverged(t, applier, primary)
	if got, want := applier.AppliedLSN(), primary.DurableLSN(); got != want {
		t.Fatalf("applied %d != primary durable %d", got, want)
	}
	if got := countLabel(t, replica, "PostCrash"); got != 10 {
		t.Fatalf("replica sees %d PostCrash nodes, want 10", got)
	}
	if got := countLabel(t, replica, "Warm"); got != warm {
		t.Fatalf("replica lost history: %d Warm nodes", got)
	}

	// Phase 5: replica restart resumes from its own recovered log.
	applier.Close()
	if err := replica.Close(); err != nil {
		t.Fatal(err)
	}
	replica = openReplica(t, rdir)
	defer replica.Close()
	commitNode(t, primary, "PostCrash", 99)
	applier2 := fastApplier(t, replica, addr)
	defer applier2.Close()
	waitConverged(t, applier2, primary)
	if got := countLabel(t, replica, "PostCrash"); got != 11 {
		t.Fatalf("restarted replica sees %d PostCrash nodes, want 11", got)
	}
}

// TestReplicaSnapshotIsolation: a snapshot opened on the replica does not
// observe commits applied after it began — prefix consistency at the
// applied position, not read-latest.
func TestReplicaSnapshotIsolation(t *testing.T) {
	primary := openPrimary(t, t.TempDir())
	defer primary.Close()
	ship, err := repl.NewShipper(primary, "127.0.0.1:0", repl.ShipperOptions{HeartbeatEvery: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer ship.Close()
	id, _ := commitNode(t, primary, "Iso", 1)
	replica := openReplica(t, t.TempDir())
	defer replica.Close()
	applier := fastApplier(t, replica, ship.Addr())
	defer applier.Close()
	waitConverged(t, applier, primary)

	snap := replica.Begin() // snapshot at the current applied position
	defer snap.Abort()

	// Overwrite the value on the primary and wait for it to apply.
	tx := primary.Begin()
	if err := tx.SetNodeProp(id, "v", value.Int(2)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := applier.WaitApplied(tx.CommitLSN(), 10*time.Second); err != nil {
		t.Fatal(err)
	}

	// The old snapshot still reads v=1; a fresh one reads v=2.
	got, err := snap.GetNode(id)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := got.Props["v"].AsInt(); v != 1 {
		t.Fatalf("old snapshot sees v=%d, want 1", v)
	}
	fresh := replica.Begin()
	defer fresh.Abort()
	got, err = fresh.GetNode(id)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := got.Props["v"].AsInt(); v != 2 {
		t.Fatalf("fresh snapshot sees v=%d, want 2", v)
	}
}

// TestShipperHoldsTruncationForConnectedReplica: a checkpoint on the
// primary must not delete segments a connected replica still needs.
func TestShipperHoldsTruncationForConnectedReplica(t *testing.T) {
	primary := openPrimary(t, t.TempDir())
	defer primary.Close()
	ship, err := repl.NewShipper(primary, "127.0.0.1:0", repl.ShipperOptions{HeartbeatEvery: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer ship.Close()

	// A raw connection that handshakes from 0 and then reads nothing:
	// the slowest possible replica.
	conn, err := net.Dial("tcp", ship.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeRawHandshake(conn, 0); err != nil {
		t.Fatal(err)
	}
	// Give the shipper a moment to register the connection.
	time.Sleep(50 * time.Millisecond)

	for i := 0; i < 60; i++ {
		commitNode(t, primary, "T", int64(i))
	}
	if err := primary.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Segment 0 must still exist: a real replica can still catch up
	// from position 0 over a fresh connection.
	replica := openReplica(t, t.TempDir())
	defer replica.Close()
	applier := fastApplier(t, replica, ship.Addr())
	defer applier.Close()
	waitConverged(t, applier, primary)
	if got := countLabel(t, replica, "T"); got != 60 {
		t.Fatalf("replica sees %d nodes, want 60", got)
	}
}

// TestBehindHorizonRejected: without a connected replica holding
// retention, a checkpoint truncates the log and a cold replica can no
// longer catch up — the shipper must refuse with a clear error instead
// of shipping a hole.
func TestBehindHorizonRejected(t *testing.T) {
	primary := openPrimary(t, t.TempDir())
	defer primary.Close()
	for i := 0; i < 60; i++ {
		commitNode(t, primary, "T", int64(i))
	}
	if err := primary.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ship, err := repl.NewShipper(primary, "127.0.0.1:0", repl.ShipperOptions{HeartbeatEvery: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer ship.Close()

	conn, err := net.Dial("tcp", ship.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeRawHandshake(conn, 0); err != nil {
		t.Fatal(err)
	}
	// The epoch announce ('g') and heartbeats precede the failure; the
	// truncation error must arrive within a few frames.
	br := bufio.NewReader(conn)
	for i := 0; ; i++ {
		typ, _, payload, err := readRawFrame(t, conn, br)
		if err != nil {
			t.Fatal(err)
		}
		if typ == 'g' || typ == 'h' {
			if i > 16 {
				t.Fatal("no error frame after 16 frames")
			}
			continue
		}
		if typ != 'e' || !strings.Contains(string(payload), "oldest retained segment") {
			t.Fatalf("frame = %c %q, want truncation error", typ, payload)
		}
		break
	}
}

// TestShipperRejectsGarbageHandshake: junk bytes must not wedge or crash
// the shipper; a well-formed replica connects fine afterwards.
func TestShipperRejectsGarbageHandshake(t *testing.T) {
	primary := openPrimary(t, t.TempDir())
	defer primary.Close()
	commitNode(t, primary, "T", 1)
	ship, err := repl.NewShipper(primary, "127.0.0.1:0", repl.ShipperOptions{HeartbeatEvery: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer ship.Close()

	conn, err := net.Dial("tcp", ship.Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte("GET / HTTP/1.1\r\n\r\n"))
	// The shipper hangs up on a bad handshake.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("shipper kept talking to a garbage handshake")
	}
	conn.Close()

	// And on a well-formed one of the protocol before this: a replica
	// built then reads every mutation as a whole entity, and would apply a
	// delta by dropping the properties it leaves out.
	if conn, err = net.Dial("tcp", ship.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := writeRawHandshakeV(conn, 3, 0); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("shipper streamed to a replica that cannot read deltas")
	}
	conn.Close()

	replica := openReplica(t, t.TempDir())
	defer replica.Close()
	applier := fastApplier(t, replica, ship.Addr())
	defer applier.Close()
	waitConverged(t, applier, primary)
}

// writeRawHandshake mirrors the current protocol for tests that need a
// raw conn (stream mode; epoch 1: a pristine replica; fixed instance id).
func writeRawHandshake(w io.Writer, from uint64) error { return writeRawHandshakeV(w, 4, from) }

func writeRawHandshakeV(w io.Writer, version uint16, from uint64) error {
	buf := make([]byte, 31)
	copy(buf, "NGRP")
	binary.LittleEndian.PutUint16(buf[4:], version)
	buf[6] = 0 // modeStream
	binary.LittleEndian.PutUint64(buf[7:], from)
	binary.LittleEndian.PutUint64(buf[15:], 1)
	binary.LittleEndian.PutUint64(buf[23:], 0xbadcafe)
	_, err := w.Write(buf)
	return err
}

func readRawFrame(t *testing.T, conn net.Conn, br *bufio.Reader) (byte, uint64, []byte, error) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	hdr := make([]byte, 13)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return 0, 0, nil, err
	}
	lsn := binary.LittleEndian.Uint64(hdr[1:])
	n := binary.LittleEndian.Uint32(hdr[9:])
	if n > 1<<20 {
		return 0, 0, nil, fmt.Errorf("absurd frame length %d", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(br, payload); err != nil {
		return 0, 0, nil, err
	}
	return hdr[0], lsn, payload, nil
}

// Package repl implements WAL-shipping replication: a primary-side
// Shipper that streams the write-ahead log over TCP — sealed segments
// for catch-up, then the live tail as records become durable — and a
// replica-side Applier that redo-applies the stream into its own engine,
// so the replica serves fully snapshot-isolated reads at its applied
// position.
//
// The consistency contract is prefix consistency: a replica's state is
// always the primary's state as of some durable log prefix, applied in
// order. Only records at or below the primary's durability horizon are
// shipped, so a replica can never be ahead of what the primary would
// recover to after a crash — which is what lets a reconnecting replica
// resume the stream from its own log end without reconciliation. Clients
// that need read-your-writes carry the commit's end position (the LSN
// token returned by the primary) and wait until the replica has applied
// past it.
//
// Stream layout: the replica opens a TCP connection, sends a fixed
// handshake naming the position it wants the stream to resume from and
// the newest replication epoch it has seen, and the primary replies with
// a sequence of frames:
//
//	handshake  magic "NGRP"  version:u16le  from:u64le  epoch:u64le
//	frame      type:u8  lsn:u64le  len:u32le  payload
//
// Frame types: 'g' announces the primary's full epoch history (lsn =
// current epoch; payload = 16-byte entries, oldest first, each epoch
// u64le then fork-start-LSN u64le) and is always the first frame; 'r'
// carries one WAL record (lsn = record start position, payload = record
// bytes); 'h' is a heartbeat (lsn = primary durability horizon, payload
// = one flags byte) emitted after every shipped batch and on an idle
// timer — hbFlagSyncAck asks the replica to fsync before acknowledging,
// which is how synchronous replication gets prompt durable acks; 'e'
// carries a terminal error message. The replica sends 'a' acknowledgement
// frames (lsn = its durable applied position) back on the same
// connection; the primary uses them for quorum commit gating and status
// reporting, and the positions of connected replicas hold back WAL
// truncation so their backlog stays readable.
//
// The epoch exchange is the failover fence: a promotion bumps the epoch
// and records the fork-point LSN, so a demoted primary whose log runs
// past the fork is refused by the promoted node ("re-seed required"),
// and a primary that sees a replica with a newer epoch knows it is
// itself stale and refuses to ship.
//
// Re-seed phase (protocol v3): a handshake whose mode byte is modeReseed
// asks the primary for a consistent snapshot instead of a record stream.
// The primary checkpoints, freezes its store files and WAL truncation,
// and replies 'S' (lsn = snapshot end LSN, payload = u32le file count),
// then per file a 'f' header (lsn = file size, payload = slash-separated
// relative path) followed by 'c' chunks carrying the bytes, and finally
// 'z' (lsn = snapshot end LSN again). The joiner writes the files into a
// staging dir and swaps them into its data dir behind a crash marker, so
// "re-seed required" is an automatic recovery action, not an operator
// runbook step.
package repl

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

const (
	magic = "NGRP"
	// protoVersion 2 added the epoch field to the handshake, the epoch
	// announce frame and the heartbeat flags byte. Version 3 added the
	// handshake mode byte and the snapshot re-seed frames. Version 4 has
	// the same frames around a changed payload: an update travels as a delta
	// (core's mutation flag bits 2 and 3), which a version 3 replica would
	// apply as a whole entity and lose every property the delta leaves out —
	// it must refuse the stream at the handshake instead.
	protoVersion = 4

	// maxFramePayload bounds one frame's payload. WAL records are capped
	// by the segment size (16 MiB default); anything larger is a corrupt
	// or hostile stream.
	maxFramePayload = 64 << 20

	frameEpoch     = 'g' // primary -> replica: epoch + fork-point LSN, first frame
	frameRecord    = 'r' // primary -> replica: one WAL record
	frameHeartbeat = 'h' // primary -> replica: durability horizon + flags
	frameError     = 'e' // primary -> replica: terminal error, then close
	frameAck       = 'a' // replica -> primary: durable applied position

	frameSnapBegin = 'S' // primary -> joiner: snapshot end LSN + file count
	frameSnapFile  = 'f' // primary -> joiner: next file's size + relative path
	frameSnapChunk = 'c' // primary -> joiner: file bytes
	frameSnapEnd   = 'z' // primary -> joiner: snapshot complete

	// hbFlagSyncAck in a heartbeat's flags byte asks the replica to make
	// its applied tail durable before acknowledging — set by primaries
	// running synchronous replication so quorum acks mean replica-durable.
	hbFlagSyncAck = 1

	// Handshake modes.
	modeStream = 0 // resume the WAL record stream from `from`
	modeReseed = 1 // fetch a consistent snapshot (from/epoch ignored)
)

const handshakeLen = 4 + 2 + 1 + 8 + 8 + 8

// writeHandshake sends the stream-resume request: the requested mode
// (record stream or snapshot re-seed), the position to resume from, the
// newest epoch this replica has seen, and the replica's instance id (a
// random non-zero value per applier) so the primary can tell a reconnect
// of the same replica from a second replica — quorum votes are per
// replica, not per connection.
func writeHandshake(w io.Writer, mode byte, from, epoch, id uint64) error {
	var buf [handshakeLen]byte
	copy(buf[:4], magic)
	binary.LittleEndian.PutUint16(buf[4:], protoVersion)
	buf[6] = mode
	binary.LittleEndian.PutUint64(buf[7:], from)
	binary.LittleEndian.PutUint64(buf[15:], epoch)
	binary.LittleEndian.PutUint64(buf[23:], id)
	_, err := w.Write(buf[:])
	return err
}

// readHandshake validates the magic and version and returns the mode,
// resume position, the replica's epoch, and its instance id.
func readHandshake(r io.Reader) (mode byte, from, epoch, id uint64, err error) {
	var buf [handshakeLen]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, 0, 0, 0, fmt.Errorf("repl: read handshake: %w", err)
	}
	if string(buf[:4]) != magic {
		return 0, 0, 0, 0, fmt.Errorf("repl: bad handshake magic %q", buf[:4])
	}
	if v := binary.LittleEndian.Uint16(buf[4:]); v != protoVersion {
		return 0, 0, 0, 0, fmt.Errorf("repl: protocol version %d, want %d", v, protoVersion)
	}
	mode = buf[6]
	if mode != modeStream && mode != modeReseed {
		return 0, 0, 0, 0, fmt.Errorf("repl: unknown handshake mode %d", mode)
	}
	return mode, binary.LittleEndian.Uint64(buf[7:]), binary.LittleEndian.Uint64(buf[15:]),
		binary.LittleEndian.Uint64(buf[23:]), nil
}

const frameHeaderLen = 1 + 8 + 4

// writeFrame appends one frame to w (the caller flushes).
func writeFrame(w *bufio.Writer, typ byte, lsn uint64, payload []byte) error {
	var hdr [frameHeaderLen]byte
	hdr[0] = typ
	binary.LittleEndian.PutUint64(hdr[1:], lsn)
	binary.LittleEndian.PutUint32(hdr[9:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// readFrame reads one frame, reusing buf for the payload when it fits.
// The returned payload is only valid until the next call.
func readFrame(r *bufio.Reader, buf []byte) (typ byte, lsn uint64, payload []byte, err error) {
	var hdr [frameHeaderLen]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	typ = hdr[0]
	lsn = binary.LittleEndian.Uint64(hdr[1:])
	n := binary.LittleEndian.Uint32(hdr[9:])
	if n > maxFramePayload {
		return 0, 0, nil, fmt.Errorf("repl: frame payload %d bytes exceeds limit", n)
	}
	if n == 0 {
		return typ, lsn, nil, nil
	}
	if int(n) <= cap(buf) {
		payload = buf[:n]
	} else {
		payload = make([]byte, n)
	}
	if _, err = io.ReadFull(r, payload); err != nil {
		return 0, 0, nil, fmt.Errorf("repl: read frame payload: %w", err)
	}
	return typ, lsn, payload, nil
}

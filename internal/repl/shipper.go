package repl

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"neograph/internal/core"
	"neograph/internal/wal"
)

// ShipperOptions tune the primary side.
type ShipperOptions struct {
	// HeartbeatEvery is the idle heartbeat interval (also the cadence at
	// which replica acknowledgements are solicited). Zero means 100ms.
	HeartbeatEvery time.Duration
	// WriteTimeout bounds one write batch to a replica; a replica that
	// cannot drain the stream this long is disconnected rather than
	// allowed to wedge the shipper. Zero means 30s.
	WriteTimeout time.Duration
	// SyncReplicas makes replication synchronous: a commit is
	// acknowledged only once this many replicas have durably acked its
	// WAL end position (heartbeats then ask replicas to fsync before
	// acking). Zero keeps replication asynchronous.
	SyncReplicas int
	// SyncTimeout is the degrade-to-async window: a commit that cannot
	// assemble its quorum this long is acknowledged anyway and counted in
	// Degraded (availability over consistency, like a primary whose
	// replicas all died). Zero means 1s; negative means wait forever.
	SyncTimeout time.Duration
	// ReseedRetainFor holds WAL truncation at a served snapshot's end
	// position for this long, so the joiner can reconnect and resume the
	// record stream before the segments it needs are truncated away.
	// Zero means 60s.
	ReseedRetainFor time.Duration
	// Logger receives replica connect/disconnect and stream refusals;
	// nil is silent.
	Logger *slog.Logger
}

// DefaultSyncTimeout is the degrade-to-async window when unset.
const DefaultSyncTimeout = time.Second

// ReplicaInfo describes one connected replica for status reporting.
type ReplicaInfo struct {
	Addr string `json:"addr"`
	// ShippedPos is the position up to which the stream has been sent.
	ShippedPos uint64 `json:"shipped_pos"`
	// AckedPos is the replica's last acknowledged applied position.
	AckedPos uint64 `json:"acked_pos"`
}

// shipConn is one replica connection's state.
type shipConn struct {
	conn net.Conn
	// id is the replica's instance id from the handshake (0 from clients
	// that sent none); quorum votes are deduplicated by it so a zombie
	// connection plus its replacement never count as two replicas.
	id uint64
	// pos is the next position to ship — the WAL retention floor for
	// this replica.
	pos atomic.Uint64
	// acked is the position the replica has durably acknowledged on THIS
	// connection. It starts at zero — never at the handshake position,
	// which is the replica's applied-but-possibly-unsynced log end and
	// must not satisfy a durability quorum.
	acked atomic.Uint64
}

// Shipper streams the engine's WAL to any number of replicas. It ships
// only durable records (group-commit fsyncs drive the tail forward), and
// holds checkpoint truncation of the WAL below the position of the
// slowest connected replica.
type Shipper struct {
	e    *core.Engine
	ln   net.Listener
	opts ShipperOptions
	log  *slog.Logger

	mu     sync.Mutex
	conns  map[*shipConn]struct{}
	closed bool
	// reseedFloors holds WAL retention at served snapshots' end positions
	// (position -> hold expiry) until the joiners reconnect as streaming
	// replicas or the hold times out.
	reseedFloors map[uint64]time.Time
	// ackC, when non-nil, is closed whenever any replica's acknowledged
	// position advances (or a replica disconnects), waking quorum waiters.
	ackC chan struct{}

	// degraded counts commits acknowledged without their quorum because
	// SyncTimeout elapsed.
	degraded atomic.Uint64

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewShipper starts serving the engine's WAL on addr (":0" picks a port).
func NewShipper(e *core.Engine, addr string, opts ShipperOptions) (*Shipper, error) {
	if e.WAL() == nil {
		return nil, errors.New("repl: replication requires a persistent store")
	}
	if opts.HeartbeatEvery <= 0 {
		opts.HeartbeatEvery = 100 * time.Millisecond
	}
	if opts.WriteTimeout <= 0 {
		opts.WriteTimeout = 30 * time.Second
	}
	if opts.SyncTimeout == 0 {
		opts.SyncTimeout = DefaultSyncTimeout
	}
	if opts.ReseedRetainFor <= 0 {
		opts.ReseedRetainFor = 60 * time.Second
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("repl: listen: %w", err)
	}
	s := &Shipper{
		e:            e,
		ln:           ln,
		opts:         opts,
		log:          cmp.Or(opts.Logger, slog.New(slog.DiscardHandler)).With("component", "repl.shipper"),
		conns:        make(map[*shipConn]struct{}),
		reseedFloors: make(map[uint64]time.Time),
		stop:         make(chan struct{}),
	}
	e.SetWALRetain(s.retainPos)
	if opts.SyncReplicas > 0 {
		e.SetCommitSyncWait(s.waitQuorum)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound replication address.
func (s *Shipper) Addr() string { return s.ln.Addr().String() }

// Replicas snapshots the connected replicas.
func (s *Shipper) Replicas() []ReplicaInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ReplicaInfo, 0, len(s.conns))
	for c := range s.conns {
		out = append(out, ReplicaInfo{
			Addr:       c.conn.RemoteAddr().String(),
			ShippedPos: c.pos.Load(),
			AckedPos:   c.acked.Load(),
		})
	}
	return out
}

// retainPos is the checkpointer's WAL retention hook: keep segments from
// the slowest connected replica's *acknowledged* position on. Shipped
// bytes sitting unapplied in a replica's socket buffer don't count — a
// replica that dies there reconnects from its applied position and needs
// those segments again.
func (s *Shipper) retainPos() (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var min uint64
	ok := false
	for c := range s.conns {
		if p := c.acked.Load(); !ok || p < min {
			min, ok = p, true
		}
	}
	// Recently served snapshots hold retention at their end position until
	// the joiner reconnects (or the hold expires): truncating the tail a
	// fresh joiner is about to resume from would force it straight into a
	// second re-seed.
	now := time.Now()
	for pos, expiry := range s.reseedFloors {
		if now.After(expiry) {
			delete(s.reseedFloors, pos)
			continue
		}
		if !ok || pos < min {
			min, ok = pos, true
		}
	}
	return min, ok
}

// Degraded counts commits acknowledged without their replica quorum
// because SyncTimeout elapsed.
func (s *Shipper) Degraded() uint64 { return s.degraded.Load() }

// wakeAcks releases quorum waiters to re-check replica positions.
func (s *Shipper) wakeAcks() {
	s.mu.Lock()
	if s.ackC != nil {
		close(s.ackC)
		s.ackC = nil
	}
	s.mu.Unlock()
}

// waitQuorum is the engine's commit hook under synchronous replication:
// it blocks until SyncReplicas distinct replicas have durably acked the
// commit's end position. On SyncTimeout — or a shipper shutdown racing
// the commit — it degrades: the commit is acknowledged anyway and
// counted, because a primary whose replicas died must stay available,
// and every quorum-less acknowledgement must be visible to the operator
// through Degraded.
func (s *Shipper) waitQuorum(end uint64) error {
	var timerC <-chan time.Time
	if s.opts.SyncTimeout > 0 {
		t := time.NewTimer(s.opts.SyncTimeout)
		defer t.Stop()
		timerC = t.C
	}
	timedOut := false
	for {
		s.mu.Lock()
		// Votes are per replica instance, not per connection: a zombie
		// connection surviving alongside its replacement must not double
		// a single replica's vote. Id 0 (a client that sent none) cannot
		// be deduplicated and counts per connection.
		seen := make(map[uint64]struct{}, len(s.conns))
		n := 0
		for c := range s.conns {
			if c.acked.Load() < end {
				continue
			}
			if c.id != 0 {
				if _, dup := seen[c.id]; dup {
					continue
				}
				seen[c.id] = struct{}{}
			}
			n++
		}
		if n >= s.opts.SyncReplicas {
			// A quorum that assembled is a quorum, even if the degrade
			// timer raced the deciding ack — never a degraded commit.
			s.mu.Unlock()
			return nil
		}
		if s.closed || timedOut {
			s.mu.Unlock()
			s.degraded.Add(1)
			return nil
		}
		if s.ackC == nil {
			s.ackC = make(chan struct{})
		}
		ch := s.ackC
		s.mu.Unlock()
		select {
		case <-ch:
		case <-timerC:
			// Recount before declaring the degrade: select picks randomly
			// among ready cases, so the timer can win against an ack that
			// already completed the quorum.
			timedOut = true
		case <-s.stop:
			// Close sets closed before closing stop: loop once more so a
			// quorum that did assemble is honoured, else count the degrade.
		}
	}
}

// Close stops accepting, disconnects every replica, and releases the
// WAL retention hold and the commit quorum hook.
func (s *Shipper) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.e.SetWALRetain(nil)
	if s.opts.SyncReplicas > 0 {
		s.e.SetCommitSyncWait(nil)
	}
	close(s.stop)
	err := s.ln.Close()
	s.mu.Lock()
	for c := range s.conns {
		c.conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *Shipper) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go s.handle(conn)
	}
}

// handle serves one replica: catch-up from whatever segments hold its
// resume position, then the live tail as records become durable.
func (s *Shipper) handle(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()

	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	mode, from, repEpoch, repID, err := readHandshake(conn)
	if err != nil {
		return
	}
	conn.SetReadDeadline(time.Time{})

	if mode == modeReseed {
		s.handleReseed(conn)
		return
	}

	c := &shipConn{conn: conn, id: repID}
	c.pos.Store(from)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.conns[c] = struct{}{}
	s.mu.Unlock()
	log := s.log.With("replica", conn.RemoteAddr().String())
	log.Info("replica connected", "resume_from", from)
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		closed := s.closed
		s.mu.Unlock()
		if !closed {
			log.Info("replica disconnected", "shipped", c.pos.Load(), "acked", c.acked.Load())
		}
		// Quorum waiters must re-count: this replica no longer votes.
		s.wakeAcks()
	}()

	bw := bufio.NewWriterSize(conn, 64<<10)
	w := s.e.WAL()

	sendErr := func(msg string) {
		log.Warn("refusing replica stream", "reason", msg)
		conn.SetWriteDeadline(time.Now().Add(s.opts.WriteTimeout))
		writeFrame(bw, frameError, 0, []byte(msg))
		bw.Flush()
	}
	// Epoch fencing. A replica that has seen a newer epoch than ours
	// means *we* are the stale side (e.g. a demoted primary restarted
	// with its old role); shipping would fork history. A replica on an
	// older epoch is fine only while its log does not extend past the
	// fork point of ANY epoch it missed — checking just the newest fork
	// would wave through a node diverged before an earlier promotion,
	// whose bytes belong to a timeline dead for several generations.
	hist := s.e.EpochHistory()
	myEpoch, _ := s.e.Epoch()
	if repEpoch > myEpoch {
		sendErr(fmt.Sprintf("repl: replica epoch %d ahead of primary epoch %d; this primary is stale", repEpoch, myEpoch))
		return
	}
	for _, en := range hist {
		if en.Epoch > repEpoch && from > en.Start {
			sendErr(fmt.Sprintf("repl: replica log end %d on epoch %d diverged past the epoch-%d fork point %d; re-seed required", from, repEpoch, en.Epoch, en.Start))
			return
		}
	}
	if from > w.DurableLSN() {
		// A replica ahead of the primary's durable log is from a
		// different history (e.g. it applied records a crashed primary
		// never recovered — impossible while shipping only durable
		// records, so the replica must be re-seeded).
		sendErr(fmt.Sprintf("repl: replica position %d ahead of primary durable log %d; re-seed required", from, w.DurableLSN()))
		return
	}
	if start, serr := w.StartLSN(); serr == nil && from < start {
		// Checkpoints truncated the segments this replica would resume
		// from before it connected; only a snapshot can bring it back.
		sendErr(fmt.Sprintf("repl: replica position %d predates the oldest retained segment %d; re-seed required", from, start))
		return
	}

	// Announce our full epoch history before any record so the replica
	// can adopt (or refuse) the timeline up front.
	epochPayload := make([]byte, 0, 16*len(hist))
	for _, en := range hist {
		epochPayload = binary.LittleEndian.AppendUint64(epochPayload, en.Epoch)
		epochPayload = binary.LittleEndian.AppendUint64(epochPayload, en.Start)
	}
	// Flushed immediately: if the catch-up read below fails (e.g. the
	// replica's resume position is mid-record on OUR log — a diverged
	// timeline that shares our epoch number), the replica must still
	// receive the history so it can classify the conflict as
	// re-seed-required instead of retrying a bare EOF forever.
	if err := writeFrame(bw, frameEpoch, myEpoch, epochPayload); err != nil {
		return
	}
	if err := bw.Flush(); err != nil {
		return
	}

	// Drain acknowledgements; a read error closes the connection and so
	// unblocks any in-flight write.
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer conn.Close()
		br := bufio.NewReader(conn)
		for {
			typ, lsn, _, err := readFrame(br, nil)
			if err != nil || typ != frameAck {
				return
			}
			c.acked.Store(lsn)
			s.wakeAcks()
		}
	}()

	pos := from
	for {
		horizon, err := w.WaitShippable(pos, s.opts.HeartbeatEvery, s.stop)
		if err != nil {
			if !errors.Is(err, wal.ErrCanceled) && !errors.Is(err, wal.ErrClosed) {
				sendErr(err.Error())
			}
			return
		}
		conn.SetWriteDeadline(time.Now().Add(s.opts.WriteTimeout))
		if horizon > pos {
			err := w.ReadRange(pos, horizon, func(lsn uint64, payload []byte) error {
				c.pos.Store(lsn)
				return writeFrame(bw, frameRecord, lsn, payload)
			})
			if err != nil {
				if errors.Is(err, wal.ErrTruncated) {
					sendErr(err.Error())
				}
				return
			}
			pos = horizon
			c.pos.Store(pos)
		}
		// Heartbeat after every batch and on idle: carries the durability
		// horizon so replicas can report lag even when nothing ships, and
		// under synchronous replication asks for an fsynced ack so quorum
		// votes mean replica-durable.
		hbFlags := []byte{0}
		if s.opts.SyncReplicas > 0 {
			hbFlags[0] |= hbFlagSyncAck
		}
		if err := writeFrame(bw, frameHeartbeat, s.e.DurableLSN(), hbFlags); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

package repl

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"neograph/internal/core"
)

// ApplierOptions tune the replica side.
type ApplierOptions struct {
	// RetryMin/RetryMax bound the reconnect backoff. Zero means
	// 50ms / 2s.
	RetryMin, RetryMax time.Duration
	// DialTimeout bounds one connection attempt. Zero means 5s.
	DialTimeout time.Duration
	// ReadTimeout is how long the applier waits for any frame before
	// declaring the connection dead; the primary heartbeats far more
	// often. Zero means 30s.
	ReadTimeout time.Duration
	// SyncEvery rate-limits the replica's own WAL fsyncs: the applied
	// tail is made durable at most this often (heartbeats arrive once per
	// shipped batch, far too often to fsync each). A replica crash only
	// re-fetches the unsynced tail from the primary, so the window trades
	// re-fetch volume, not correctness. Zero means 200ms.
	SyncEvery time.Duration
	// Logger receives connection state changes (info/warn) and the
	// per-attempt reconnect failures (debug — they repeat on the backoff
	// cadence for as long as the primary is down). Nil is silent.
	Logger *slog.Logger
}

// ApplierStatus snapshots the replica's replication state.
type ApplierStatus struct {
	PrimaryAddr string `json:"primary_addr"`
	Connected   bool   `json:"connected"`
	// AppliedPos is the position one past the last applied record.
	AppliedPos uint64 `json:"applied_pos"`
	// PrimaryDurable is the primary's durability horizon from the last
	// heartbeat; PrimaryDurable - AppliedPos is the byte lag.
	PrimaryDurable uint64 `json:"primary_durable"`
	// LagSeconds is how long the replica has continuously been behind the
	// primary's durability horizon (0 when caught up) — the wall-clock
	// companion to the byte lag above, and the series operators alert on.
	LagSeconds float64 `json:"lag_seconds"`
	LastError  string  `json:"last_error,omitempty"`
	// ReseedRequired is set when the last stream attempt ended with
	// ErrReseedRequired: reconnecting can never succeed, the data dir
	// must be replaced by a snapshot from the primary.
	ReseedRequired bool `json:"reseed_required,omitempty"`
}

// ErrApplierClosed reports a wait cut off by Close.
var ErrApplierClosed = errors.New("repl: applier closed")

// ErrWaitTimeout reports a WaitApplied that ran out its timeout before
// the applied position reached the requested gate. Callers polling in
// bounded slices (the server's drain-aware WaitLSN gate) test for it
// with errors.Is to distinguish "not yet" from a real failure.
var ErrWaitTimeout = errors.New("repl: apply wait timed out")

// ErrReseedRequired reports that this replica's log cannot resume the
// stream — it diverged past a fork point, fell behind the primary's
// retained WAL, or its epoch history conflicts with the primary's. The
// replica's data dir must be replaced by a snapshot from the primary
// (DB.ReseedFrom / the cluster controller do this automatically).
var ErrReseedRequired = errors.New("repl: re-seed required")

// Applier maintains the replica's connection to its primary: it dials,
// resumes the stream from the local log end, redo-applies every record
// through the engine's recovery apply path, and reconnects with backoff
// after any failure. One Applier is the sole writer of its engine's WAL.
type Applier struct {
	e       *core.Engine
	primary string
	opts    ApplierOptions
	// id identifies this applier instance across reconnects (random,
	// non-zero) so the primary's quorum accounting can deduplicate a
	// replica's old and new connections.
	id  uint64
	log *slog.Logger
	// sessionUp flags that the current streamOnce established its
	// connection, so run can tell a lost session (warn — a state change)
	// from a failed reconnect attempt (debug — backoff spam).
	sessionUp atomic.Bool

	applied atomic.Uint64
	// primaryDurable is the primary's durability horizon from the last
	// heartbeat (atomic so lag accounting and scrapes skip a.mu).
	primaryDurable atomic.Uint64
	// behindSince is the UnixNano instant the replica last fell behind the
	// primary's horizon, 0 while caught up. LagSeconds derives from it.
	behindSince atomic.Int64

	mu        sync.Mutex
	conn      net.Conn // live connection, for Close to sever
	connected bool
	lastErr   error
	notifyC   chan struct{} // closed when applied advances
	closed    bool

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewApplier creates (but does not start) an applier feeding e, which
// must be open in replica mode, from the primary's shipper address.
func NewApplier(e *core.Engine, primaryAddr string, opts ApplierOptions) (*Applier, error) {
	if !e.IsReplica() {
		return nil, errors.New("repl: applier requires an engine in replica mode")
	}
	if opts.RetryMin <= 0 {
		opts.RetryMin = 50 * time.Millisecond
	}
	if opts.RetryMax <= 0 {
		opts.RetryMax = 2 * time.Second
	}
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = 5 * time.Second
	}
	if opts.ReadTimeout <= 0 {
		opts.ReadTimeout = 30 * time.Second
	}
	if opts.SyncEvery <= 0 {
		opts.SyncEvery = 200 * time.Millisecond
	}
	a := &Applier{e: e, primary: primaryAddr, opts: opts, stop: make(chan struct{})}
	a.log = cmp.Or(opts.Logger, slog.New(slog.DiscardHandler)).With("component", "repl.applier", "primary", primaryAddr)
	for a.id == 0 {
		a.id = rand.Uint64()
	}
	a.applied.Store(e.AppliedLSN())
	return a, nil
}

// Start launches the connect/apply/reconnect loop.
func (a *Applier) Start() {
	a.wg.Add(1)
	go a.run()
}

// Close severs the connection and stops reconnecting. Waiters in
// WaitApplied are released with ErrApplierClosed.
func (a *Applier) Close() {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return
	}
	a.closed = true
	if a.conn != nil {
		a.conn.Close()
	}
	a.mu.Unlock()
	close(a.stop)
	a.wg.Wait()
	a.mu.Lock()
	a.wakeLocked()
	a.mu.Unlock()
}

// AppliedLSN returns the position one past the last applied record.
func (a *Applier) AppliedLSN() uint64 { return a.applied.Load() }

// Status snapshots the replication state.
func (a *Applier) Status() ApplierStatus {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := ApplierStatus{
		PrimaryAddr:    a.primary,
		Connected:      a.connected,
		AppliedPos:     a.applied.Load(),
		PrimaryDurable: a.primaryDurable.Load(),
		LagSeconds:     a.LagSeconds(),
	}
	if a.lastErr != nil {
		st.LastError = a.lastErr.Error()
		st.ReseedRequired = errors.Is(a.lastErr, ErrReseedRequired)
	}
	return st
}

// WaitApplied blocks until the applied position reaches pos — the
// read-your-writes gate: pos is the commit-LSN token the primary
// returned for the write the caller must observe. A zero timeout waits
// indefinitely (until Close).
func (a *Applier) WaitApplied(pos uint64, timeout time.Duration) error {
	if a.applied.Load() >= pos {
		return nil
	}
	var timerC <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timerC = t.C
	}
	for {
		a.mu.Lock()
		if a.applied.Load() >= pos {
			a.mu.Unlock()
			return nil
		}
		if a.closed {
			a.mu.Unlock()
			return ErrApplierClosed
		}
		if a.notifyC == nil {
			a.notifyC = make(chan struct{})
		}
		c := a.notifyC
		a.mu.Unlock()
		select {
		case <-c:
		case <-timerC:
			return fmt.Errorf("%w: position %d (applied %d)", ErrWaitTimeout, pos, a.applied.Load())
		case <-a.stop:
			return ErrApplierClosed
		}
	}
}

// wakeLocked releases WaitApplied callers. Caller holds a.mu.
func (a *Applier) wakeLocked() {
	if a.notifyC != nil {
		close(a.notifyC)
		a.notifyC = nil
	}
}

// run is the reconnect loop: stream until failure, back off, retry. The
// backoff doubles up to RetryMax and every sleep is jittered, so a fleet
// of replicas orphaned by a primary crash doesn't reconnect in lockstep
// when the promoted node starts shipping on the old address.
func (a *Applier) run() {
	defer a.wg.Done()
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	backoff := a.opts.RetryMin
	for {
		select {
		case <-a.stop:
			return
		default:
		}
		start := time.Now()
		err := a.streamOnce()
		hadConn := a.sessionUp.Swap(false)
		a.mu.Lock()
		a.lastErr = err
		closed := a.closed
		a.mu.Unlock()
		switch {
		case closed || errors.Is(err, ErrApplierClosed):
			// Shutting down; the teardown error is not news.
		case hadConn:
			a.log.Warn("primary connection lost", "err", err)
		default:
			a.log.Debug("reconnect attempt failed", "err", err, "backoff", backoff)
		}
		if time.Since(start) > 5*time.Second {
			backoff = a.opts.RetryMin // the session was healthy; reset
		}
		select {
		case <-a.stop:
			return
		case <-time.After(jitteredBackoff(backoff, rng)):
		}
		if backoff *= 2; backoff > a.opts.RetryMax {
			backoff = a.opts.RetryMax
		}
	}
}

// jitteredBackoff spreads one reconnect delay uniformly over [d/2, d].
// The cap stays d (== RetryMax once the doubling saturates): jitter must
// never push a sleep past the configured maximum, or a "max 2s" applier
// could be observed sleeping longer.
func jitteredBackoff(d time.Duration, rng *rand.Rand) time.Duration {
	if d <= 1 {
		return d
	}
	half := d / 2
	return half + time.Duration(rng.Int63n(int64(d-half)+1))
}

// streamOnce runs one replication session: handshake from the local log
// end, then apply frames until the connection dies.
func (a *Applier) streamOnce() error {
	conn, err := net.DialTimeout("tcp", a.primary, a.opts.DialTimeout)
	if err != nil {
		return fmt.Errorf("repl: dial primary: %w", err)
	}
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		conn.Close()
		return ErrApplierClosed
	}
	a.conn = conn
	a.connected = true
	a.mu.Unlock()
	a.sessionUp.Store(true)
	a.log.Info("connected to primary", "resume_from", a.e.AppliedLSN())
	defer func() {
		conn.Close()
		a.mu.Lock()
		a.conn = nil
		a.connected = false
		a.mu.Unlock()
	}()

	from := a.e.AppliedLSN()
	myEpoch, _ := a.e.Epoch()
	conn.SetWriteDeadline(time.Now().Add(a.opts.DialTimeout))
	if err := writeHandshake(conn, modeStream, from, myEpoch, a.id); err != nil {
		return fmt.Errorf("repl: handshake: %w", err)
	}
	conn.SetWriteDeadline(time.Time{})

	br := bufio.NewReaderSize(conn, 64<<10)
	bw := bufio.NewWriter(conn)
	buf := make([]byte, 32<<10)
	lastSync := time.Now()
	sawEpoch := false
	for {
		conn.SetReadDeadline(time.Now().Add(a.opts.ReadTimeout))
		typ, lsn, payload, err := readFrame(br, buf)
		if err != nil {
			return fmt.Errorf("repl: stream: %w", err)
		}
		switch typ {
		case frameEpoch:
			// First frame: the primary's full epoch history (16-byte
			// entries, oldest first; lsn = its current epoch). A primary
			// behind our epoch is a stale ex-primary still shipping its
			// dead timeline — refuse before applying anything. And before
			// adopting a newer timeline, our own log end must sit at or
			// before the fork point of EVERY epoch we missed: past any of
			// them, our tail is dead-timeline bytes the primary-side check
			// also refuses, but a replica must not rely on the peer alone.
			if len(payload) == 0 || len(payload)%16 != 0 {
				return fmt.Errorf("repl: malformed epoch frame (%d payload bytes)", len(payload))
			}
			hist := make([]core.EpochEntry, 0, len(payload)/16)
			for off := 0; off < len(payload); off += 16 {
				hist = append(hist, core.EpochEntry{
					Epoch: binary.LittleEndian.Uint64(payload[off:]),
					Start: binary.LittleEndian.Uint64(payload[off+8:]),
				})
			}
			primaryEpoch := lsn
			cur, _ := a.e.Epoch()
			if primaryEpoch < cur {
				return fmt.Errorf("repl: primary epoch %d behind replica epoch %d; refusing stale primary", primaryEpoch, cur)
			}
			for _, en := range hist {
				if en.Epoch > cur && from > en.Start {
					return fmt.Errorf("repl: local log end %d diverged past the epoch-%d fork point %d: %w", from, en.Epoch, en.Start, ErrReseedRequired)
				}
			}
			// Epoch numbers alone cannot fence a double claim: if a winner
			// crashed mid-promotion after persisting epoch N and a second
			// election claimed the same N with a different fork point, the
			// two timelines share an epoch number but not a history. Any
			// epoch we both know must fork at the same position — otherwise
			// our prefix is from the dead claimant's timeline.
			local := a.e.EpochHistory()
			for _, en := range hist {
				for _, mine := range local {
					if mine.Epoch == en.Epoch && mine.Start != en.Start {
						return fmt.Errorf("repl: epoch %d forks at %d locally but at %d on the primary — conflicting histories: %w",
							en.Epoch, mine.Start, en.Start, ErrReseedRequired)
					}
				}
			}
			if err := a.e.AdoptEpochHistory(hist); err != nil {
				return err
			}
			sawEpoch = true
		case frameRecord:
			if !sawEpoch {
				return errors.New("repl: record before epoch announce")
			}
			if err := a.e.ApplyReplicated(lsn, payload); err != nil {
				return err
			}
			a.advanceApplied(a.e.AppliedLSN())
		case frameHeartbeat:
			a.primaryDurable.Store(lsn)
			a.updateLag()
			// Heartbeats close every shipped batch — far too often to pay
			// an fsync each, so local durability is rate-limited — unless
			// the primary runs synchronous replication and asked for a
			// durable ack (hbFlagSyncAck), in which case the fsync happens
			// now: the primary's commits are parked on this ack. The ack
			// reports the locally *durable* position: it is the WAL
			// retention floor on the primary, a quorum vote under sync
			// replication, and a crashed replica resumes from its durable
			// log end.
			syncNow := len(payload) > 0 && payload[0]&hbFlagSyncAck != 0
			if syncNow || time.Since(lastSync) >= a.opts.SyncEvery {
				if err := a.e.SyncWAL(); err != nil {
					return fmt.Errorf("repl: replica wal sync: %w", err)
				}
				lastSync = time.Now()
			}
			conn.SetWriteDeadline(time.Now().Add(a.opts.ReadTimeout))
			if err := writeFrame(bw, frameAck, a.e.DurableLSN(), nil); err != nil {
				return err
			}
			if err := bw.Flush(); err != nil {
				return err
			}
		case frameError:
			// The primary's refusal text is the only channel it has; map
			// the "re-seed required" family onto the structured error so
			// the controller can turn it into an automatic re-seed.
			if bytes.Contains(payload, []byte("re-seed required")) {
				return fmt.Errorf("repl: primary refused stream: %s: %w", payload, ErrReseedRequired)
			}
			return fmt.Errorf("repl: primary refused stream: %s", payload)
		default:
			return fmt.Errorf("repl: unknown frame type %q", typ)
		}
	}
}

// advanceApplied publishes a new applied position and wakes waiters.
func (a *Applier) advanceApplied(pos uint64) {
	a.applied.Store(pos)
	a.updateLag()
	a.mu.Lock()
	a.wakeLocked()
	a.mu.Unlock()
}

// updateLag reconciles behindSince with the current applied/horizon gap:
// caught up clears it, falling behind stamps the instant it started. The
// CAS keeps the stamp at the *first* fall-behind instant when heartbeats
// and applies race.
func (a *Applier) updateLag() {
	if a.applied.Load() >= a.primaryDurable.Load() {
		a.behindSince.Store(0)
	} else {
		a.behindSince.CompareAndSwap(0, time.Now().UnixNano())
	}
}

// LagSeconds reports how long the replica has continuously been behind
// the primary's durability horizon, 0 when caught up.
func (a *Applier) LagSeconds() float64 {
	s := a.behindSince.Load()
	if s == 0 {
		return 0
	}
	return time.Since(time.Unix(0, s)).Seconds()
}

// LagBytes reports the byte gap to the primary's durability horizon
// (0 when caught up or before the first heartbeat).
func (a *Applier) LagBytes() uint64 {
	d, ap := a.primaryDurable.Load(), a.applied.Load()
	if d <= ap {
		return 0
	}
	return d - ap
}

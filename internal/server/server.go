// Package server exposes a neograph database over TCP using the wire
// protocol. Each connection is a session with at most one open
// transaction; operations outside an explicit begin/commit run in their
// own auto-committed transaction. Traversals execute fully server-side —
// the engine-side query execution the paper's introduction argues graph
// databases exist for.
package server

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"neograph"
	"neograph/internal/metrics"
	"neograph/internal/partition"
	"neograph/internal/repl"
	"neograph/internal/trace"
	"neograph/internal/value"
	"neograph/internal/wire"
)

// maxRequestBytes bounds one request frame. A session streaming a larger
// request is cut off mid-decode and closed — an oversized payload must
// not buffer unboundedly or wedge the server.
const maxRequestBytes = 8 << 20

// waitLSNTimeout bounds Request.WaitLSN gating: a replica that cannot
// catch up to the requested position in this window fails the read
// instead of holding the session forever.
const waitLSNTimeout = 10 * time.Second

// responseWriteTimeout bounds writing one response frame: a client that
// stops reading cannot pin a handler (and its transaction) forever.
const responseWriteTimeout = 30 * time.Second

// DefaultDrainGrace is how long Close waits for in-flight requests to
// finish before hard-closing their connections.
const DefaultDrainGrace = 5 * time.Second

// Config tunes a server beyond its listen address.
type Config struct {
	// DrainGrace is the bounded window Close gives in-flight handlers to
	// write their response before their connections are hard-closed.
	// Zero means DefaultDrainGrace.
	DrainGrace time.Duration
	// MaxInflight caps concurrently executing requests across all
	// sessions; the excess is rejected immediately with the structured
	// "overloaded" code rather than queued. Zero means unlimited.
	MaxInflight int
	// MaxQueuedBytes caps the sum of admitted request-frame bytes held
	// in flight — the server's request-memory budget. A single frame
	// larger than the budget is always rejected. Zero means unlimited.
	MaxQueuedBytes int64
	// Metrics, when non-nil, receives the server's operational series
	// (sessions, per-op latency, admission) — pass the registry mounted
	// at /metrics.
	Metrics *metrics.Registry
	// Tracer, when non-nil, records a server-side span tree for every
	// request that arrives carrying a trace context (the client made the
	// sampling decision at the head). Mount trace.Handler on the same
	// listener as /metrics to read the ring back.
	Tracer *trace.Tracer
	// Logger receives the server's structured log records; nil is silent.
	Logger *slog.Logger
	// SlowOp, when positive and Tracer is set, logs the full span tree of
	// any traced request slower than this threshold.
	SlowOp time.Duration
}

// Server serves one DB over a listener.
type Server struct {
	db *neograph.DB
	ln net.Listener

	// DrainGrace is the bounded window Close gives in-flight handlers to
	// write their response before their connections are hard-closed.
	// Set before Close; zero means DefaultDrainGrace.
	DrainGrace time.Duration

	// Admission control (Config.MaxInflight / MaxQueuedBytes). The
	// gauges are maintained even when the limits are off — they are the
	// load series on /metrics; add-then-check-then-revert keeps the
	// check race-free without a lock on the request hot path.
	maxInflight    int64
	maxQueuedBytes int64
	inflight       atomic.Int64
	queuedBytes    atomic.Int64
	inflightPeak   atomic.Int64
	queuedPeak     atomic.Int64
	admitted       atomic.Uint64
	rejected       atomic.Uint64

	sm     *serverMetrics // nil when Config.Metrics is nil
	tracer *trace.Tracer  // nil disables server-side spans

	// draining is read on every request's hot path; atomic so sessions
	// never contend on the server-wide mutex just to poll shutdown.
	draining atomic.Bool

	// clusterInfo, when set, supplies the node's cluster self-view for
	// the cluster_status op (unset, ClusterInfo answers it). It is a plain
	// func hook so the server does not import the cluster package (which
	// imports client, which dials servers); cmd/neograph-server wires the
	// two together.
	clusterMu   sync.Mutex
	clusterInfo func() any
	// coord / partSelf / partCount are the partition wiring (see
	// SetPartition); nil coord means unpartitioned.
	coord     *partition.Coordinator
	partSelf  uint32
	partCount int

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	// shedAt is when blocked WaitLSN gates give up during a drain —
	// slightly before the hard-close so their error response still
	// reaches the client as a complete frame.
	shedAt time.Time
	wg     sync.WaitGroup
}

// SetClusterInfo installs (or clears, with nil) the provider behind the
// cluster_status op — typically a cluster.Controller's NodeStatus. The
// returned value is JSON-marshalled into Response.Info.
func (s *Server) SetClusterInfo(fn func() any) {
	s.clusterMu.Lock()
	s.clusterInfo = fn
	s.clusterMu.Unlock()
}

func (s *Server) clusterInfoFn() func() any {
	s.clusterMu.Lock()
	defer s.clusterMu.Unlock()
	return s.clusterInfo
}

// ClusterInfo is a replication status in cluster_status form: what a node
// without a cluster controller answers the op with, and the base a
// controller's self-view adds its identity and membership to.
func ClusterInfo(st neograph.ReplStatus) wire.ClusterInfo {
	ci := wire.ClusterInfo{
		Role:       st.Role,
		Epoch:      st.Epoch,
		DurableLSN: st.DurableLSN,
		AppliedLSN: st.AppliedLSN,
		Connected:  st.Connected,
	}
	switch st.Role {
	case "replica":
		ci.PrimaryReplAddr = st.PrimaryAddr
	case "primary":
		ci.ReplAddr = st.ReplicationAddr
		ci.PrimaryReplAddr = st.ReplicationAddr
	}
	return ci
}

// NewWithConfig creates a server for db listening on addr (e.g.
// "127.0.0.1:7475"); the zero Config is the defaults.
func NewWithConfig(db *neograph.DB, addr string, cfg Config) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("server: listen: %w", err)
	}
	s := &Server{
		db:             db,
		ln:             ln,
		conns:          make(map[net.Conn]struct{}),
		DrainGrace:     cfg.DrainGrace,
		maxInflight:    int64(cfg.MaxInflight),
		maxQueuedBytes: cfg.MaxQueuedBytes,
		tracer:         cfg.Tracer,
	}
	if cfg.Metrics != nil {
		s.sm = newServerMetrics(cfg.Metrics, s)
	}
	if cfg.Tracer != nil && cfg.SlowOp > 0 {
		slowLog := cmp.Or(cfg.Logger, slog.New(slog.DiscardHandler))
		cfg.Tracer.SetSlowOp(cfg.SlowOp, func(tr trace.TraceRecord, root trace.SpanRecord) {
			tree, _ := json.Marshal(tr.Spans)
			slowLog.Warn("slow op", "trace", tr.TraceID,
				"op", root.Name,
				"dur", time.Duration(root.DurUS)*time.Microsecond,
				"spans", string(tree))
		})
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// AdmissionStats snapshots the admission-control counters.
type AdmissionStats struct {
	// Inflight / QueuedBytes are the current load; the peaks are
	// high-water marks over the server's lifetime (admitted requests
	// only — rejected ones never contribute).
	Inflight, InflightPeak       int64
	QueuedBytes, QueuedBytesPeak int64
	Admitted, Rejected           uint64
}

// Admission snapshots the admission-control state.
func (s *Server) Admission() AdmissionStats {
	return AdmissionStats{
		Inflight:        s.inflight.Load(),
		InflightPeak:    s.inflightPeak.Load(),
		QueuedBytes:     s.queuedBytes.Load(),
		QueuedBytesPeak: s.queuedPeak.Load(),
		Admitted:        s.admitted.Load(),
		Rejected:        s.rejected.Load(),
	}
}

// admit charges one request frame against the admission budget. On
// rejection the charge is fully reverted and errOverloaded returned; the
// session stays open. Add-then-check makes the decision race-free and a
// frame larger than MaxQueuedBytes deterministically rejected.
//
// An admitted frame's charge is released after its last response frame is
// written (handle: serve, then release), so a client that has read a
// response may still see that frame counted in Admission for a moment.
func (s *Server) admit(frameBytes int64) error {
	infl := s.inflight.Add(1)
	qb := s.queuedBytes.Add(frameBytes)
	if (s.maxInflight > 0 && infl > s.maxInflight) ||
		(s.maxQueuedBytes > 0 && qb > s.maxQueuedBytes) {
		s.inflight.Add(-1)
		s.queuedBytes.Add(-frameBytes)
		s.rejected.Add(1)
		return errOverloaded
	}
	s.admitted.Add(1)
	peakMax(&s.inflightPeak, infl)
	peakMax(&s.queuedPeak, qb)
	return nil
}

// release returns a request's admission charge after its response is
// written.
func (s *Server) release(frameBytes int64) {
	s.inflight.Add(-1)
	s.queuedBytes.Add(-frameBytes)
}

// peakMax raises a high-water mark monotonically.
func peakMax(p *atomic.Int64, v int64) {
	for {
		cur := p.Load()
		if v <= cur || p.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting and drains: idle sessions are woken and closed
// immediately (their pending read is poisoned), in-flight handlers get
// DrainGrace to finish writing their current response — a response must
// never be torn mid-frame by shutdown — and only laggards beyond the
// grace period are hard-closed. A handler blocked away from its
// connection (in a lock wait, say) outlives the hard close: Close waits
// one more grace period for it, then returns an error counting those
// still running rather than hang.
func (s *Server) Close() error {
	grace := s.DrainGrace
	if grace <= 0 {
		grace = DefaultDrainGrace
	}
	margin := grace / 4
	if margin > 250*time.Millisecond {
		margin = 250 * time.Millisecond
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.shedAt = time.Now().Add(grace - margin)
	s.mu.Unlock()
	s.draining.Store(true)
	err := s.ln.Close()

	// Wake idle sessions: expiring the read deadline fails the blocking
	// Decode without touching writes, so a handler mid-response still
	// flushes its frame and then exits on the next read.
	s.mu.Lock()
	for c := range s.conns {
		c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return err
	case <-time.After(grace):
	}
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	select {
	case <-done:
		return err
	case <-time.After(grace):
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return errors.Join(err, fmt.Errorf("server: %d handlers still running %v after close began", len(s.conns), 2*grace))
}

// isDraining reports whether Close has begun.
func (s *Server) isDraining() bool { return s.draining.Load() }

// shedDeadline returns when blocked gates must give up, and whether a
// drain is in progress at all.
func (s *Server) shedDeadline() (time.Time, bool) {
	if !s.draining.Load() {
		return time.Time{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shedAt, true
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handle(conn)
	}
}

// session is one connection's state.
type session struct {
	db  *neograph.DB
	srv *Server
	// tx is the transaction the session's ops run in: an explicit one
	// (begin … commit), or — owned set — one the current frame opened
	// (txn), which settle ends before the frame's response is written.
	// nil between frames outside an explicit transaction.
	tx    *neograph.Tx
	owned bool
	// deadline is the current request's time budget (from the wire
	// deadline_ms field); zero means none. It bounds server-side waits.
	deadline time.Time
	// span is the current request's server-side span (nil untraced); the
	// commit sites hand it to the transaction so the engine's pipeline
	// stages appear under it.
	span *trace.Span
	// crossPrepare marks a two-phase-commit prepare execution:
	// relationship creation tolerates endpoints owned by other
	// partitions (the coordinator guards them there).
	crossPrepare bool
	// txFrames counts the request frames the open explicit transaction has
	// spanned, its begin's included; zero when there is none.
	txFrames int
}

func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	sess := &session{db: s.db, srv: s}
	defer func() {
		if sess.tx != nil {
			sess.tx.Abort()
			sess.tx = nil
			sess.txFrame(false)
		}
	}()
	if s.sm != nil {
		s.sm.sessions.Add(1)
		defer s.sm.sessions.Add(-1)
	}
	wc := wire.NewConn(conn, maxRequestBytes)
	for {
		var req wire.Request
		frameBytes, err := wc.ReadRequest(&req)
		if err != nil {
			return // disconnect, garbage, oversized frame, or drain wake-up
		}
		sess.deadline = time.Time{}
		// Admission: reject over-budget requests before any dispatch work,
		// with a complete structured error frame — the session survives and
		// the client backs off on the code. (For a query that single error
		// frame, More unset, is a complete, valid stream.) An abort is
		// exempt: it only frees the transaction's locks and snapshot, and
		// shedding it would leave them held on a full server.
		if req.Op == wire.OpAbort {
			err = sess.serve(conn, wc, &req)
		} else if rejected := s.admit(frameBytes); rejected != nil {
			err = sess.writeFrame(conn, wc, &req, fail(rejected))
		} else {
			err = sess.serve(conn, wc, &req)
			s.release(frameBytes)
		}
		// A drain may have begun while this request executed; the decoder
		// could still serve pipelined requests from its buffer, so check
		// explicitly — the response above was the session's last.
		if err != nil || s.isDraining() {
			return
		}
	}
}

// serve runs one admitted request to its last response frame. The returned
// error is non-nil only for frame-write failures, after which the session
// is unusable (a frame may be half-written).
func (sess *session) serve(conn net.Conn, wc *wire.Conn, req *wire.Request) error {
	s := sess.srv
	if req.DeadlineMS > 0 {
		sess.deadline = time.Now().Add(time.Duration(req.DeadlineMS) * time.Millisecond)
	}
	// A request arriving with a trace context was sampled at the head (the
	// client); open this process's view of the trace. An untraced request
	// may still be head-sampled here, rooting the trace at the server (the
	// -trace-sample knob).
	switch {
	case s.tracer == nil: // no span, and no span name to build
	case req.Trace != nil:
		sess.span = s.tracer.StartRemote(
			trace.Context{TraceID: req.Trace.TraceID, SpanID: req.Trace.SpanID},
			"server."+req.Op)
	default:
		sess.span = s.tracer.StartRoot("server." + req.Op)
	}
	t0 := time.Now()
	tid := sess.span.TraceID()
	wasOpen := sess.tx != nil
	done := func() {
		sess.span.Finish()
		sess.span = nil
		sess.txFrame(wasOpen)
		if s.sm != nil {
			s.sm.observe(req, time.Since(t0), tid)
		}
	}
	// A query streams its response as chunked frames, all inside its span.
	if req.Op == wire.OpQuery {
		defer done()
		return sess.streamQuery(conn, wc, req)
	}
	resp := sess.dispatch(req)
	if !resp.OK {
		sess.span.Set("error", resp.Error)
	}
	done()
	return sess.writeFrame(conn, wc, req, resp)
}

// txFrame counts the frame just served against the explicit transaction it
// ran in — wasOpen: one was open when the frame arrived; a begin inside the
// frame has started the count itself — and, once that transaction is gone
// (commit, abort, a failed batch, a disconnect), observes how many frames it
// spanned: a client still sending one frame per call shows up here.
func (sess *session) txFrame(wasOpen bool) {
	if wasOpen {
		sess.txFrames++
	}
	if sess.txFrames > 0 && sess.tx == nil {
		if sess.srv.sm != nil {
			sess.srv.sm.txnFrames.Observe(float64(sess.txFrames))
		}
		sess.txFrames = 0
	}
}

// writeFrame flushes one complete response frame for req. Correlation:
// every frame — success, error, even an admission rejection, and every
// chunk of a stream — echoes the request's seq and trace ID so pipelined
// clients can pair frames and logs can be joined. The write is bounded so
// a stalled reader cannot pin the handler; the request's own deadline
// tightens the bound, but with a floor — a budget that expired while the
// request executed must still get its error frame flushed, not a hangup.
func (sess *session) writeFrame(conn net.Conn, wc *wire.Conn, req *wire.Request, resp *wire.Response) error {
	resp.Seq = req.Seq
	if req.Trace != nil {
		resp.TraceID = req.Trace.TraceID
	}
	wd := time.Now().Add(responseWriteTimeout)
	if !sess.deadline.IsZero() {
		floor := time.Now().Add(time.Second)
		switch {
		case sess.deadline.Before(floor):
			wd = floor
		case sess.deadline.Before(wd):
			wd = sess.deadline
		}
	}
	conn.SetWriteDeadline(wd) // every frame sets its own; nothing to clear after
	return wc.WriteResponse(resp)
}

// txn returns the transaction the current op runs in: the session's open
// one, else a fresh one the frame owns. An op outside begin … commit is a
// transaction of its own, reads included (the paper's §3 model); settle
// ends it. This and prepareBatch are the server's only Begin calls.
func (sess *session) txn() *neograph.Tx {
	if sess.tx == nil {
		sess.tx = sess.db.Begin()
		sess.tx.SetTraceSpan(sess.span)
		sess.owned = true
	}
	return sess.tx
}

// settle ends the transaction the frame owns, if any, on the outcome of
// resp: a success commits and carries the commit position as its
// read-your-writes token (0 for a read); a failure aborts. An explicit
// transaction outlives the frame, whatever its op answered.
func (sess *session) settle(resp *wire.Response) *wire.Response {
	if !sess.owned {
		return resp
	}
	tx := sess.tx
	sess.tx, sess.owned = nil, false
	if !resp.OK {
		tx.Abort()
		return resp
	}
	if err := tx.Commit(); err != nil {
		return fail(err) // commit-time conflict: no single op to blame
	}
	resp.LSN = tx.CommitLSN()
	return resp
}

// errDeadline fails a request whose wire deadline budget is spent
// (wire.CodeDeadline; clients map it back to context.DeadlineExceeded).
var errDeadline = errors.New("server: deadline exceeded")

// checkDeadline fails once the request's deadline_ms budget is spent.
func (sess *session) checkDeadline() error {
	if !sess.deadline.IsZero() && !time.Now().Before(sess.deadline) {
		return errDeadline
	}
	return nil
}

// drainPoll is how often a blocked WaitLSN gate re-checks for server
// drain, bounding how long a gated request can delay Close.
const drainPoll = 200 * time.Millisecond

// gate admits a request to execution: it fails once the request's
// deadline_ms budget is spent and, given a WaitLSN, blocks until the
// server reaches that log position — read-your-writes on replicas (wait
// for apply), durable-read gating on primaries (wait for fsync). The wait
// is bounded by waitLSNTimeout, tightened by the request's wire deadline,
// and sliced so a draining server sheds blocked waiters promptly instead
// of holding Close.
func (sess *session) gate(req *wire.Request) error {
	pos := req.WaitLSN
	if pos == 0 {
		return sess.checkDeadline()
	}
	timeout := waitLSNTimeout
	byDeadline := false
	if !sess.deadline.IsZero() {
		rem := time.Until(sess.deadline)
		if rem <= 0 {
			return errDeadline
		}
		if rem < timeout {
			timeout = rem
			byDeadline = true
		}
	}
	end := time.Now().Add(timeout)
	for {
		chunk := time.Until(end)
		if chunk <= 0 {
			if byDeadline {
				// The request's own budget (deadline_ms) cut the wait
				// short — report that, so clients map it to their
				// context.DeadlineExceeded.
				return errDeadline
			}
			return fmt.Errorf("%w: position %d", repl.ErrWaitTimeout, pos)
		}
		if chunk > drainPoll {
			chunk = drainPoll
		}
		if shedAt, draining := sess.srv.shedDeadline(); draining {
			if !time.Now().Before(shedAt) {
				return errShuttingDown
			}
			// Clamp the wait so the next check lands right after the
			// shed point — a free-running drainPoll cadence could
			// otherwise straddle it and meet the hard-close instead.
			if d := time.Until(shedAt) + 5*time.Millisecond; d < chunk {
				chunk = d
			}
		}
		err := sess.db.WaitApplied(pos, chunk)
		if err == nil || !errors.Is(err, repl.ErrWaitTimeout) {
			return err
		}
	}
}

// dispatch guards replica/read-gating/deadline concerns, then executes
// the op and settles the transaction the frame owns.
func (sess *session) dispatch(req *wire.Request) *wire.Response {
	if wire.ShapeOf(req.Op).Write && sess.db.IsReplica() {
		return fail(sess.redirect("writes"))
	}
	switch req.Op {
	case wire.OpPrepare, wire.OpDecide, wire.OpTxnStatus:
		return sess.dispatchPartitionOp(req)
	}
	if req.IDRef != nil || req.StartRef != nil || req.EndRef != nil {
		return fail(errors.New("server: id references are only valid inside a batch"))
	}
	if resp, handled := sess.routePartitioned(req); handled {
		return resp
	}
	if err := sess.gate(req); err != nil {
		return fail(err)
	}
	if req.Op == wire.OpBatch {
		return sess.settle(sess.dispatchBatch(req))
	}
	return sess.settle(sess.dispatchOp(req))
}

// redirect is what a read-only replica answers writes (a prepare, ...)
// with, naming the primary. Callers reject up front, so clients get the
// redirect before any staging happens, whether auto-committed or inside an
// open transaction.
func (sess *session) redirect(what string) error {
	return fmt.Errorf("%w: %s must go to the primary at %s",
		neograph.ErrReadOnlyReplica, what, sess.db.PrimaryAddr())
}

// dispatchBatch executes every sub-op of a batch inside ONE transaction —
// the session's open one if there is one, the one its leading begin opens,
// else one the frame owns, which dispatch settles. Atomic:
// the first failing sub-op aborts the whole transaction (including an
// enclosing explicit one — its staged writes cannot be separated from the
// batch's) and the response names the failed op. A response that names
// none means no sub-op ran: the session's transaction is as it was.
func (sess *session) dispatchBatch(req *wire.Request) *wire.Response {
	if err := wire.ValidateBatch(req); err != nil {
		return fail(err)
	}
	// ValidateBatch has placed them: a begin is first, a commit last.
	begins := req.Batch[0].Op == wire.OpBegin
	commits := req.Batch[len(req.Batch)-1].Op == wire.OpCommit
	switch {
	case begins && sess.tx != nil:
		return fail(errTxOpen)
	case commits && !begins && sess.tx == nil:
		return fail(errNoTx)
	}
	if sess.db.IsReplica() {
		for i := range req.Batch {
			if wire.ShapeOf(req.Batch[i].Op).Write {
				return fail(sess.redirect(fmt.Sprintf("batch op %d is a write; writes", i)))
			}
		}
	}
	// A batch spanning partitions commits through the coordinator (two
	// phases across the involved primaries) instead of a local
	// transaction. Explicit transactions stay single-partition: their
	// earlier staged writes cannot join a cross-partition prepare.
	if coord, self, count := sess.srv.partitionView(); coord != nil &&
		partition.CrossPartition(req.Batch, self, count) {
		if sess.tx != nil || begins || commits {
			return fail(errors.New("server: cross-partition batch is not allowed inside an explicit transaction"))
		}
		return coord.CommitBatch(req.Batch, sess.deadline)
	}
	if !begins {
		sess.txn()
	}
	results, failed := sess.runBatchOps("batch", req.Batch)
	if failed != nil {
		return failed
	}
	resp := &wire.Response{OK: true, Results: results}
	if commits {
		resp.LSN = results[len(results)-1].LSN
	}
	return resp
}

// runBatchOps executes batch sub-ops against the session's open
// transaction, resolving $n back references as creations land. It returns
// the per-op results, or — after aborting the transaction — the failure
// response: the first failing sub-op's message and error code under a
// "what aborted at op N" heading, FailedOp naming it. Shared by the batch
// op and the two-phase-commit prepare.
func (sess *session) runBatchOps(what string, batch []wire.Request) ([]wire.Response, *wire.Response) {
	results := make([]wire.Response, 0, len(batch))
	ids := make([]neograph.NodeID, len(batch))
	hasID := make([]bool, len(batch))
	for i := range batch {
		sub := sess.runBatchOp(&batch[i], i, ids, hasID)
		if !sub.OK {
			// (A begin that failed opened none; a commit that failed has
			// already aborted and dropped it.)
			if sess.tx != nil {
				sess.tx.Abort()
				sess.tx, sess.owned = nil, false
			}
			idx := i
			return nil, &wire.Response{
				Error:    fmt.Sprintf("server: %s aborted at op %d: %s", what, i, sub.Error),
				Code:     sub.Code,
				FailedOp: &idx,
			}
		}
		results = append(results, *sub)
	}
	return results, nil
}

// runBatchOp executes sub-op i of a batch.
func (sess *session) runBatchOp(sub *wire.Request, i int, ids []neograph.NodeID, hasID []bool) *wire.Response {
	if err := sess.checkDeadline(); err != nil {
		return fail(err)
	}
	op, err := resolveBatchRefs(sub, i, ids, hasID)
	if err != nil {
		return fail(err)
	}
	resp := sess.dispatchOp(op)
	if resp.OK && (op.Op == wire.OpCreateNode || op.Op == wire.OpCreateRel) {
		ids[i], hasID[i] = resp.ID, true
	}
	return resp
}

// fail is where an error becomes a response — the one place its wire code
// is chosen: the server's own conditions here, engine sentinels from the
// wire package's table.
func fail(err error) *wire.Response {
	resp := &wire.Response{Error: err.Error(), Code: wire.CodeOf(err)}
	switch {
	case errors.Is(err, errDeadline):
		resp.Code = wire.CodeDeadline
	case errors.Is(err, errShuttingDown), errors.Is(err, repl.ErrWaitTimeout):
		resp.Code = wire.CodeUnavailable
	case errors.Is(err, errOverloaded):
		resp.Code = wire.CodeOverloaded
	}
	return resp
}

// errShuttingDown sheds gated waiters when the server drains.
var errShuttingDown = errors.New("server: shutting down")

// errOverloaded rejects requests past the admission budget.
var errOverloaded = errors.New("server: overloaded: admission budget exhausted")

// errTxOpen and errNoTx refuse session control that does not fit the
// session's state: a second begin, a commit or abort of nothing.
var (
	errTxOpen = errors.New("server: transaction already open")
	errNoTx   = errors.New("server: no open transaction")
)

// result answers an op whose only outcome is err.
func result(err error) *wire.Response {
	if err != nil {
		return fail(err)
	}
	return &wire.Response{OK: true}
}

// info answers with v (a stats / gc / replication / cluster report)
// JSON-marshalled into Response.Info.
func info(v any) *wire.Response {
	raw, err := json.Marshal(v)
	if err != nil {
		return fail(err)
	}
	return &wire.Response{OK: true, Info: raw}
}

// relJSON converts a relationship snapshot to its wire form.
func relJSON(r neograph.Relationship) wire.RelJSON {
	return wire.RelJSON{ID: r.ID, Type: r.Type, Start: r.Start, End: r.End, Props: wire.Props(r.Props)}
}

func (sess *session) dispatchOp(req *wire.Request) *wire.Response {
	switch req.Op {
	case wire.OpPing:
		return &wire.Response{OK: true, Proto: wire.ProtocolVersion}

	case wire.OpBegin:
		if sess.tx != nil {
			return fail(errTxOpen)
		}
		switch req.Isolation {
		case "", "si":
			sess.tx = sess.db.BeginIsolation(neograph.SnapshotIsolation)
		case "rc":
			sess.tx = sess.db.BeginIsolation(neograph.ReadCommitted)
		default:
			return fail(fmt.Errorf("server: bad isolation %q", req.Isolation))
		}
		sess.txFrames = 1
		return &wire.Response{OK: true}

	case wire.OpCommit:
		if sess.tx == nil {
			return fail(errNoTx)
		}
		tx := sess.tx
		sess.tx = nil
		tx.SetTraceSpan(sess.span)
		if err := tx.Commit(); err != nil {
			return fail(err)
		}
		return &wire.Response{OK: true, LSN: tx.CommitLSN()}

	case wire.OpAbort:
		if sess.tx == nil {
			return fail(errNoTx)
		}
		sess.tx.Abort()
		sess.tx = nil
		return &wire.Response{OK: true}

	case wire.OpCreateNode, wire.OpCreateRel:
		props, err := value.ParseMap(req.Props)
		if err != nil {
			return fail(err)
		}
		var id uint64
		switch tx := sess.txn(); {
		case req.Op == wire.OpCreateNode:
			id, err = tx.CreateNode(req.Labels, props)
		case sess.crossPrepare:
			id, err = tx.Core().CreateRelCrossPartition(req.Type, req.Start, req.End, props)
		default:
			id, err = tx.CreateRel(req.Type, req.Start, req.End, props)
		}
		if err != nil {
			return fail(err)
		}
		return &wire.Response{OK: true, ID: id}

	case wire.OpGetNode:
		n, err := sess.txn().GetNode(req.ID)
		if err != nil {
			return fail(err)
		}
		return &wire.Response{OK: true, Node: &wire.NodeJSON{ID: n.ID, Labels: n.Labels, Props: wire.Props(n.Props)}}

	case wire.OpSetNodeProp, wire.OpSetRelProp:
		v, err := value.ParseValue(req.Value)
		if err != nil {
			return fail(err)
		}
		if req.Op == wire.OpSetRelProp {
			return result(sess.txn().SetRelProp(req.ID, req.Key, v))
		}
		return result(sess.txn().SetNodeProp(req.ID, req.Key, v))

	case wire.OpAddLabel:
		return result(sess.txn().AddLabel(req.ID, req.Label))

	case wire.OpRemoveLabel:
		return result(sess.txn().RemoveLabel(req.ID, req.Label))

	case wire.OpDeleteNode:
		return result(sess.txn().DeleteNode(req.ID))

	case wire.OpDetachDelete:
		return result(sess.txn().DetachDeleteNode(req.ID))

	case wire.OpDeleteRel:
		return result(sess.txn().DeleteRel(req.ID))

	case wire.OpGetRel:
		r, err := sess.txn().GetRel(req.ID)
		if err != nil {
			return fail(err)
		}
		rel := relJSON(r)
		return &wire.Response{OK: true, Rel: &rel}

	case wire.OpRels, wire.OpNeighbors:
		dir, err := wire.ParseDir(req.Dir)
		if err != nil {
			return fail(err)
		}
		if req.Op == wire.OpNeighbors {
			ids, err := sess.txn().Neighbors(req.ID, dir, req.Types...)
			if err != nil {
				return fail(err)
			}
			return &wire.Response{OK: true, IDs: ids}
		}
		rs, err := sess.txn().Relationships(req.ID, dir, req.Types...)
		if err != nil {
			return fail(err)
		}
		var rels []wire.RelJSON
		for _, r := range rs {
			rels = append(rels, relJSON(r))
		}
		return &wire.Response{OK: true, Rels: rels}

	case wire.OpStats:
		return info(sess.db.Stats())

	case wire.OpGC:
		return info(sess.db.RunGC())

	case wire.OpCheckpoint:
		return result(sess.db.Checkpoint())

	case wire.OpReplStatus:
		return info(sess.db.ReplStatus())

	case wire.OpClusterStatus:
		if fn := sess.srv.clusterInfoFn(); fn != nil {
			return info(fn())
		}
		// No controller: the replication status, in the controller's shape.
		return info(ClusterInfo(sess.db.ReplStatus()))

	case wire.OpPromote:
		// Failover: only meaningful on a replica; afterwards this server
		// accepts writes directly (the replica redirect above no longer
		// triggers) and, with Addr set, ships its WAL to re-pointed
		// siblings.
		if err := sess.db.Promote(req.Addr); err != nil {
			return fail(err)
		}
		return info(sess.db.ReplStatus())

	default:
		return fail(fmt.Errorf("server: unknown op %q", req.Op))
	}
}

package main

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"neograph"
	"neograph/client"
	"neograph/internal/trace"
	"neograph/internal/workload"
)

const (
	relTransferred = "TRANSFERRED"
	queryLimit     = 500
)

// result is what one executed op reports back to the driver.
type result struct {
	err     error
	retries int  // attempts repeated after a write conflict
	cross   bool // the op was a cross-partition batch
	// firstRow is, for a streamed query, the time from the call to the
	// first row.
	firstRow time.Duration
	rows     int
}

// clientState is one client's bookkeeping. Only that client's goroutine
// touches it while load runs.
type clientState struct {
	// seq numbers the client's writes; write k stamps k into the client's
	// ledger node, which is what the durability check reads back.
	seq int64
	// acked[p] is the stamp of the newest acknowledged write on partition
	// p, ackedX that of the newest acknowledged cross-partition batch.
	acked  []int64
	ackedX int64
}

// runner executes ops against the system under test through the
// workload's public API path.
type runner struct {
	s  *sut
	st [clients]clientState
	// direct, when set, replaces the workload's client handles with one
	// plain connection per partition primary: the layer probes use it to
	// run the stream's ops over connections that record their frames.
	direct []*client.Client
	// commitsEntered counts write transactions handed to their commit
	// call; the watermark-lag sampler compares it with the watermark.
	commitsEntered atomic.Int64
}

// conn is the connection client c uses on a single-server workload.
func (r *runner) conn(c int) *client.Client {
	if r.direct != nil {
		return r.direct[0]
	}
	return r.s.conns[c]
}

func newRunner(s *sut) *runner {
	r := &runner{s: s}
	for c := range r.st {
		r.st[c].acked = make([]int64, s.w.parts)
	}
	return r
}

// isConflict reports a write-write conflict or a deadlock victim: the
// errors a transaction is meant to be retried on. The client SDK maps the
// server's wording back onto the same sentinels.
func isConflict(err error) bool {
	return errors.Is(err, neograph.ErrWriteConflict) || errors.Is(err, neograph.ErrDeadlock)
}

// retry repeats attempt while it fails with a write conflict, backing off
// from 250µs and doubling (64 ms over all eight retries). The clients'
// write sets are disjoint, so a conflict only ever waits for the other
// client's commit to finish installing, which takes as long as that
// commit's WAL append does — tens of milliseconds when the append lands in
// one of the system's stalls.
func retry(attempt func() error) (retries int, err error) {
	for {
		if err = attempt(); err == nil || !isConflict(err) || retries == maxRetries {
			return retries, err
		}
		waitUntil(time.Now(), 250*time.Microsecond<<retries)
		retries++
	}
}

var errVerify = errors.New("verification failed")

// checkPerson verifies that a read returned the person the stream asked for.
func checkPerson(n neograph.Node, idx uint32) error {
	if uid, ok := n.Props["uid"].AsInt(); !ok || uid != int64(idx) {
		return fmt.Errorf("%w: node %d has uid %v, want %d", errVerify, n.ID, n.Props["uid"], idx)
	}
	return nil
}

// exec runs one op for client c. root, when non-nil, is the benchmark's
// root span for the op: every span the layers record becomes its child.
func (r *runner) exec(ctx context.Context, c int, o *op, root *trace.Span) result {
	if r.s.w.kind != kindEmbed {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(trace.ContextWith(ctx, root), opDeadline)
		defer cancel()
	}
	switch r.s.w.kind {
	case kindEmbed:
		if o.Write {
			return r.embedTransfer(c, o, root)
		}
		return r.embedRead(o)
	case kindRemote:
		if o.Write {
			return r.remoteTransfer(ctx, c, o)
		}
		return remoteRead(ctx, r.conn(c), r.s.g.people[0][o.N[0]], o.N[0])
	case kindTraverse:
		if o.Write {
			return r.traverseInsert(ctx, c, o)
		}
		return r.traverseQuery(ctx, c, o)
	default:
		if o.Write {
			return r.fleetBatch(ctx, c, o)
		}
		return r.fleetRead(ctx, c, o)
	}
}

// ---- embed_mix ----

func (r *runner) embedRead(o *op) result {
	id := r.s.g.people[0][o.N[0]]
	err := r.s.groups[0].primary.db.View(func(tx *neograph.Tx) error {
		n, err := tx.GetNode(id)
		if err != nil {
			return err
		}
		if _, err := tx.Neighbors(id, neograph.Outgoing, workload.RelKnows); err != nil {
			return err
		}
		return checkPerson(n, o.N[0])
	})
	return result{err: err}
}

// balance reads a person's balance out of a node snapshot.
func balance(n neograph.Node) (int64, error) {
	b, ok := n.Props["balance"].AsInt()
	if !ok {
		return 0, fmt.Errorf("%w: node %d has no balance", errVerify, n.ID)
	}
	return b, nil
}

// embedTransfer moves Amt from one balance to another, every fourth time
// also recording a TRANSFERRED relationship, and stamps the client's
// ledger. (No workload deletes: see README.md, "What the workloads avoid".)
func (r *runner) embedTransfer(c int, o *op, root *trace.Span) result {
	st := &r.st[c]
	db := r.s.groups[0].primary.db
	from, to := r.s.g.people[0][o.N[0]], r.s.g.people[0][o.N[1]]
	k := st.seq + 1
	retries, err := retry(func() error {
		tx := db.Begin()
		tx.SetTraceSpan(root)
		err := func() error {
			a, err := tx.GetNode(from)
			if err != nil {
				return err
			}
			b, err := tx.GetNode(to)
			if err != nil {
				return err
			}
			ab, err := balance(a)
			if err != nil {
				return err
			}
			bb, err := balance(b)
			if err != nil {
				return err
			}
			if err := tx.SetNodeProp(from, "balance", neograph.Int(ab-int64(o.Amt))); err != nil {
				return err
			}
			if err := tx.SetNodeProp(to, "balance", neograph.Int(bb+int64(o.Amt))); err != nil {
				return err
			}
			if o.Rel {
				if _, err := tx.CreateRel(relTransferred, from, to, neograph.Props{"amount": neograph.Int(int64(o.Amt))}); err != nil {
					return err
				}
			}
			return tx.SetNodeProp(r.s.g.ledger[c][0], "seq", neograph.Int(k))
		}()
		if err != nil {
			tx.Abort()
			return err
		}
		r.commitsEntered.Add(1)
		return tx.Commit()
	})
	if err == nil {
		st.seq, st.acked[0] = k, k
	}
	return result{err: err, retries: retries}
}

// ---- remote_mix ----

// remoteRead is the mix read over the wire: both lookups in one batch,
// one round trip.
func remoteRead(ctx context.Context, cl *client.Client, id neograph.NodeID, idx uint32) result {
	var b client.Batch
	gi := b.GetNode(id)
	b.Neighbors(id, "out", workload.RelKnows)
	res, err := cl.RunBatch(ctx, &b)
	if err != nil {
		return result{err: err}
	}
	n, err := res.Node(gi)
	if err != nil {
		return result{err: err}
	}
	return result{err: checkPerson(n, idx)}
}

// remoteTransfer is embedTransfer as an explicit session transaction:
// begin, two reads, the writes, commit — one round trip each.
func (r *runner) remoteTransfer(ctx context.Context, c int, o *op) result {
	st := &r.st[c]
	cl := r.conn(c)
	from, to := r.s.g.people[0][o.N[0]], r.s.g.people[0][o.N[1]]
	k := st.seq + 1
	retries, err := retry(func() error {
		if err := cl.Begin(ctx, ""); err != nil {
			return err
		}
		err := func() error {
			a, err := cl.GetNode(ctx, from)
			if err != nil {
				return err
			}
			b, err := cl.GetNode(ctx, to)
			if err != nil {
				return err
			}
			ab, err := balance(a)
			if err != nil {
				return err
			}
			bb, err := balance(b)
			if err != nil {
				return err
			}
			if err := cl.SetNodeProp(ctx, from, "balance", neograph.Int(ab-int64(o.Amt))); err != nil {
				return err
			}
			if err := cl.SetNodeProp(ctx, to, "balance", neograph.Int(bb+int64(o.Amt))); err != nil {
				return err
			}
			if o.Rel {
				if _, err := cl.CreateRel(ctx, relTransferred, from, to, neograph.Props{"amount": neograph.Int(int64(o.Amt))}); err != nil {
					return err
				}
			}
			return cl.SetNodeProp(ctx, r.s.g.ledger[c][0], "seq", neograph.Int(k))
		}()
		if err != nil {
			if cl.InTx() {
				cl.Abort(ctx)
			}
			return err
		}
		r.commitsEntered.Add(1)
		return cl.Commit(ctx)
	})
	if err == nil {
		st.seq, st.acked[0] = k, k
	}
	return result{err: err, retries: retries}
}

// ---- remote_traverse ----

// khopQuery is the traversal the workload reads with.
func khopQuery(id neograph.NodeID, limit int) *client.Query {
	q := client.SeedIDs(id).KHop("out", 2, workload.RelKnows).FilterLabel(workload.LabelPerson)
	if limit > 0 {
		q = q.Limit(limit)
	}
	return q
}

func (r *runner) traverseQuery(ctx context.Context, c int, o *op) result {
	start := time.Now()
	st, err := r.conn(c).Query(ctx, khopQuery(r.s.g.people[0][o.N[0]], queryLimit))
	if err != nil {
		return result{err: err}
	}
	var res result
	for st.Next() {
		if res.rows == 0 {
			res.firstRow = time.Since(start)
		}
		res.rows++
	}
	res.err = st.Err()
	st.Close()
	if res.err == nil && res.rows == 0 {
		// The seed itself is always a row (depth 0).
		res.err = fmt.Errorf("%w: k-hop from person %d returned no rows", errVerify, o.N[0])
	}
	return res
}

// traverseInsert adds four KNOWS relationships from one person and
// stamps the ledger, as one batch: one round trip, one transaction.
func (r *runner) traverseInsert(ctx context.Context, c int, o *op) result {
	st := &r.st[c]
	k := st.seq + 1
	from := r.s.g.people[0][o.N[0]]
	var b client.Batch
	for _, to := range o.N[1:5] {
		b.CreateRel(workload.RelKnows, from, r.s.g.people[0][to], nil)
	}
	b.SetNodeProp(r.s.g.ledger[c][0], "seq", neograph.Int(k))
	retries, err := retry(func() error {
		r.commitsEntered.Add(1)
		_, err := r.conn(c).RunBatch(ctx, &b)
		return err
	})
	if err == nil {
		st.seq, st.acked[0] = k, k
	}
	return result{err: err, retries: retries}
}

// ---- fleet_batch ----

// token is the causality token a client's reads and writes share.
func token(c int) string { return "client-" + strconv.Itoa(c) }

// fleetRead is the mix read routed by the Router: to a replica of the
// owning partition, gated on the client's own newest write there.
func (r *runner) fleetRead(ctx context.Context, c int, o *op) result {
	id := r.s.g.people[o.Part][o.N[0]]
	if r.direct != nil {
		return remoteRead(ctx, r.direct[o.Part], id, o.N[0])
	}
	var res result
	err := r.s.router.Read(ctx, token(c), uint64(id), func(cl *client.Client) error {
		res = remoteRead(ctx, cl, id, o.N[0])
		return res.err
	})
	if res.err == nil {
		res.err = err
	}
	return res
}

// fleetBatch is one atomic eight-op batch. A single-partition batch
// stamps the client's ledger on that partition and touches seven of the
// client's persons there; a cross-partition batch stamps xseq on the
// client's ledgers on both partitions and touches three persons on each,
// so it commits through two-phase commit and is visible on both or on
// neither.
func (r *runner) fleetBatch(ctx context.Context, c int, o *op) result {
	st := &r.st[c]
	k := st.seq + 1
	g := r.s.g
	var b client.Batch
	if o.Cross {
		for p := 0; p < 2; p++ {
			b.SetNodeProp(g.ledger[c][p], "xseq", neograph.Int(k))
			for _, idx := range o.N[3*p : 3*p+3] {
				b.SetNodeProp(g.people[p][idx], "touched", neograph.Int(k))
			}
		}
	} else {
		b.SetNodeProp(g.ledger[c][o.Part], "seq", neograph.Int(k))
		for _, idx := range o.N {
			b.SetNodeProp(g.people[o.Part][idx], "touched", neograph.Int(k))
		}
	}
	retries, err := retry(func() (err error) {
		if r.direct != nil {
			// Either primary coordinates a cross-partition batch.
			_, err = r.direct[o.Part].RunBatch(ctx, &b)
		} else {
			_, err = r.s.router.RunBatch(ctx, token(c), &b)
		}
		return err
	})
	if err == nil {
		st.seq = k
		if o.Cross {
			st.ackedX = k
		} else {
			st.acked[o.Part] = k
		}
	}
	return result{err: err, retries: retries, cross: o.Cross}
}

package client

import (
	"context"
	"errors"
	"fmt"

	"neograph/internal/wire"
)

// txState is the client's half of an explicit transaction: what the server
// has not been told yet. A transaction's writes are private until it
// commits and its snapshot may be any time before its first read (paper
// §3), so neither a write nor the begin has to reach the server before a
// call needs an answer from it.
type txState struct {
	open bool // between Begin and Commit, Abort or a flush that failed
	// aborted: a flush failed and the server aborted the transaction under
	// a caller who has not ended it yet. Until Abort, Commit (which fails) or
	// Begin every call is refused, so that what was meant for the transaction
	// cannot run — auto-committed, one call at a time — outside it.
	aborted bool
	// begun: the server has run this transaction's begin (it holds the
	// transaction's snapshot, staged writes and locks).
	begun bool
	iso   string
	// queue holds the calls that returned no data, in call order, until
	// the next flush.
	queue []wire.Request
}

// errTxAborted refuses a call between the failure that aborted a
// transaction and the Abort, Commit or Begin that acknowledges it.
var errTxAborted = errors.New("client: the transaction was aborted by an earlier error; Abort it (or Begin again) before the next call")

// InTx reports whether the session has an open explicit transaction. A
// call whose failure named a sub-op of its frame has aborted it.
func (c *Client) InTx() bool { return c.tx.open }

// endTx forgets the transaction: committed, aborted, or lost with the
// connection.
func (c *Client) endTx() { c.tx = txState{queue: c.tx.queue[:0]} }

// Begin opens an explicit transaction ("si" or "rc"; empty = si). It sends
// nothing: the begin travels with the first call that needs an answer, so
// that call's arrival — not Begin's — is when the snapshot is taken.
func (c *Client) Begin(ctx context.Context, isolation string) error {
	switch isolation {
	case "", "si", "rc":
	default:
		return fmt.Errorf("client: bad isolation %q", isolation)
	}
	if c.broken {
		return ErrBroken
	}
	if c.tx.open {
		return errors.New("client: transaction already open")
	}
	c.endTx()
	c.tx.open, c.tx.iso = true, isolation
	return nil
}

// Commit commits the open transaction, sending whatever is still deferred
// and the commit as one frame — none at all when there is nothing to
// commit. The transaction is finished afterwards, win or lose, unless the
// server refused the frame without running it — it names no sub-op:
// ErrOverloaded, a spent deadline, a gate — then InTx still holds and Commit
// or Abort can be called again.
func (c *Client) Commit(ctx context.Context) error {
	if c.tx.aborted {
		c.endTx() // the caller's own end of it, like Abort — but say it did not commit
		return errTxAborted
	}
	if !c.tx.open {
		return errors.New("client: no open transaction")
	}
	_, _, err := c.flush(ctx, nil, true)
	return err
}

// Abort aborts the open transaction. One the server never saw, or has
// already aborted, costs no frame; with no transaction open it does nothing.
func (c *Client) Abort(ctx context.Context) error {
	if !c.tx.open || !c.tx.begun {
		c.endTx()
		return nil
	}
	_, err := c.Do(ctx, &wire.Request{Op: wire.OpAbort})
	if err == nil || c.broken {
		c.endTx()
	}
	return err
}

// Flush sends the open transaction's deferred calls now (and its begin, if
// the server has not seen it) and reports their outcome, for a caller that
// needs a lock held, a snapshot taken or a conflict known at this point
// rather than at the next read or the commit. With nothing deferred and the
// begin already sent it sends nothing.
func (c *Client) Flush(ctx context.Context) error {
	_, _, err := c.flush(ctx, nil, false)
	return err
}

// later runs a call that returns no data: inside a transaction it is queued
// for the next flush, whose error reports it; outside one it is one eager,
// auto-committed frame.
func (c *Client) later(ctx context.Context, req *wire.Request) error {
	if c.tx.aborted {
		return errTxAborted
	}
	if !c.tx.open {
		_, err := c.Do(ctx, req)
		return err
	}
	if c.broken {
		return ErrBroken
	}
	if err := c.room(ctx, 1); err != nil {
		return err
	}
	c.tx.queue = append(c.tx.queue, *req)
	return nil
}

// ask runs a call that needs an answer. Outside a transaction, and inside
// one the server already holds with nothing deferred, that is the call's
// own frame, whose failure leaves the transaction as it was; otherwise it
// flushes — the begin, the deferred calls and this one are one frame.
func (c *Client) ask(ctx context.Context, req *wire.Request) (*wire.Response, error) {
	if c.tx.aborted {
		return nil, errTxAborted
	}
	if !c.tx.open || c.tx.begun && len(c.tx.queue) == 0 {
		return c.Do(ctx, req)
	}
	resp, at, err := c.flush(ctx, []wire.Request{*req}, false)
	if err != nil {
		return nil, err
	}
	return &resp.Results[at], nil
}

// room flushes first when the transaction's next frame — a begin, the
// queue, n more ops, a commit — would pass the batch limit.
func (c *Client) room(ctx context.Context, n int) error {
	if !c.tx.open || len(c.tx.queue)+n+2 <= wire.MaxBatchOps {
		return nil
	}
	return c.Flush(ctx)
}

// flush is the one place a transaction reaches the server. It sends the
// begin (unless the server has run it), the deferred calls, tail — the ops
// of the call that needs an answer — and, with commit, the commit, as ONE
// batch frame: admission admits or sheds it entire, and the server aborts
// the transaction at its first failing sub-op, so no part of it can take
// effect without the rest. Outside a transaction the frame is tail alone,
// auto-committed. It returns the batch's response and where tail's results
// start in it.
//
// What an error means for the transaction:
//   - the server names a failed sub-op: the transaction is aborted. A
//     deferred call's failure is a *BatchError counting the deferred calls
//     since the last flush; any other op's is its own error, and
//     Response.FailedOp-at indexes tail.
//   - the server answers without naming one: it refused the entire frame
//     and ran nothing; the transaction and the queue are as they were.
//   - the connection broke: the transaction died with the session.
func (c *Client) flush(ctx context.Context, tail []wire.Request, commit bool) (resp *wire.Response, at int, err error) {
	t := &c.tx
	if t.aborted {
		return nil, 0, errTxAborted
	}
	if commit && !t.begun && len(t.queue) == 0 {
		c.endTx() // nothing was read, nothing written: nothing to commit
		return nil, 0, nil
	}
	if err := c.room(ctx, len(tail)); err != nil {
		return nil, 0, err
	}
	ops, first := tail, 0
	if t.open {
		ops = make([]wire.Request, 0, len(t.queue)+len(tail)+2)
		if !t.begun {
			ops = append(ops, wire.Request{Op: wire.OpBegin, Isolation: t.iso})
			first = 1
		}
		ops = append(ops, t.queue...)
		at = len(ops)
		for i := range tail {
			ops = append(ops, shiftRefs(tail[i], at))
		}
		if commit {
			ops = append(ops, wire.Request{Op: wire.OpCommit})
		}
	}
	if len(ops) == 0 {
		return nil, 0, nil
	}
	resp, err = c.Do(ctx, &wire.Request{Op: wire.OpBatch, Batch: ops})
	switch {
	case err == nil:
		if len(resp.Results) != len(ops) {
			c.broken = true
			c.endTx()
			return nil, 0, fmt.Errorf("client: %d results for a batch of %d: %w", len(resp.Results), len(ops), ErrBroken)
		}
		if commit {
			c.endTx()
		} else if t.open {
			t.begun, t.queue = true, t.queue[:0]
		}
		return resp, at, nil
	case resp == nil:
		if c.broken {
			c.endTx()
		}
		return nil, 0, err
	case resp.FailedOp == nil:
		return resp, at, err
	}
	if i := *resp.FailedOp - first; i >= 0 && i < len(t.queue) {
		err = &BatchError{Index: i, Err: err, deferred: t.queue[i].Op}
	}
	// A Commit that failed is the transaction's end by the caller's own hand;
	// any other call's failure has to be acknowledged (see txState.aborted).
	aborted := t.open && !commit
	c.endTx()
	c.tx.aborted = aborted
	return resp, at, err
}

// shiftRefs returns op with its batch-local back references moved by off:
// a Batch numbers its ops from zero, the frame that carries it inside a
// transaction does not start with them.
func shiftRefs(op wire.Request, off int) wire.Request {
	for _, ref := range []**int{&op.IDRef, &op.StartRef, &op.EndRef} {
		if *ref != nil {
			n := **ref + off
			*ref = &n
		}
	}
	return op
}

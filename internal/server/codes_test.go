package server

import (
	"fmt"
	"testing"

	"neograph"
	"neograph/internal/repl"
	"neograph/internal/wire"
)

// TestFailSetsEveryCode: fail is the one place an error gets its wire
// code — every engine sentinel, however deeply wrapped, and each of the
// server's own conditions; anything else carries none.
func TestFailSetsEveryCode(t *testing.T) {
	for _, tc := range []struct {
		err  error
		code string
	}{
		{neograph.ErrNotFound, wire.CodeNotFound},
		{neograph.ErrWriteConflict, wire.CodeConflict},
		{neograph.ErrDeadlock, wire.CodeDeadlock},
		{neograph.ErrTxDone, wire.CodeTxDone},
		{neograph.ErrHasRels, wire.CodeHasRels},
		{neograph.ErrReadOnlyReplica, wire.CodeReadOnly},
		{errDeadline, wire.CodeDeadline},
		{errShuttingDown, wire.CodeUnavailable},
		{repl.ErrWaitTimeout, wire.CodeUnavailable},
		{errOverloaded, wire.CodeOverloaded},
		{neograph.ErrClosed, ""},
		{fmt.Errorf("server: bad isolation %q", neograph.ErrWriteConflict.Error()), ""},
	} {
		for _, err := range []error{tc.err, fmt.Errorf("outer: %w", fmt.Errorf("inner: %w", tc.err))} {
			if resp := fail(err); resp.OK || resp.Code != tc.code || resp.Error != err.Error() {
				t.Errorf("fail(%v) = ok=%v code=%q error=%q, want code %q", err, resp.OK, resp.Code, resp.Error, tc.code)
			}
		}
	}
}

// TestBatchWrappersCarryTheCode: a batch and a prepare answer a failing
// sub-op under their own heading, with the sub-op's code and index.
func TestBatchWrappersCarryTheCode(t *testing.T) {
	db, err := neograph.Open(neograph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv := &Server{db: db}
	ops := []wire.Request{{Op: wire.OpCreateNode}, {Op: wire.OpGetNode, ID: 404}}

	sess := &session{db: db, srv: srv}
	batch := sess.dispatch(&wire.Request{Op: wire.OpBatch, Batch: ops})
	prepare := srv.prepareBatch(1, 0, ops, nil)
	for what, resp := range map[string]*wire.Response{"batch": batch, "prepare": prepare} {
		if resp.OK || resp.Code != wire.CodeNotFound || resp.FailedOp == nil || *resp.FailedOp != 1 {
			t.Errorf("%s: %+v, want a not_found failure naming op 1", what, resp)
		}
		if want := "server: " + what + " aborted at op 1: "; len(resp.Error) < len(want) || resp.Error[:len(want)] != want {
			t.Errorf("%s: error %q does not start with %q", what, resp.Error, want)
		}
	}
	if sess.tx != nil {
		t.Error("a failed batch left its transaction open")
	}
	if got := len(db.InDoubt()); got != 0 {
		t.Errorf("a failed prepare left %d transactions prepared", got)
	}
}

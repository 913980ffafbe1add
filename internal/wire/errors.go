package wire

import (
	"errors"

	"neograph/internal/core"
)

// Error codes carried in Response.Code — machine-readable classification
// so clients route on structure, never on error prose. The server sets the
// code once, where the error becomes a response; every wrapper on the way
// out (a batch naming its failed sub-op, a prepare, the coordinator's
// abort) carries the failed response's code along with its message.
const (
	// CodeUnavailable: this server cannot serve the request right now
	// (draining, a gated wait timed out, a 2PC participant unreachable) —
	// another replica, or a retry, might.
	CodeUnavailable = "unavailable"
	// CodeDeadline: the request's own deadline_ms budget expired.
	CodeDeadline = "deadline"
	// CodeOverloaded: the server's admission budget (in-flight requests
	// or queued bytes) is exhausted — back off and retry; the session
	// stays open and the request had no effect.
	CodeOverloaded = "overloaded"

	// One code per engine sentinel (see engineCodes).
	CodeNotFound = "not_found"
	CodeConflict = "conflict"
	CodeDeadlock = "deadlock"
	CodeTxDone   = "tx_done"
	CodeHasRels  = "has_rels"
	CodeReadOnly = "read_only"
)

// engineCodes pairs every engine sentinel that crosses the wire with its
// code — the one table both directions read (CodeOf on the server,
// Sentinel in the client), so errors.Is works across the wire.
var engineCodes = []struct {
	code string
	err  error
}{
	{CodeNotFound, core.ErrNotFound},
	{CodeConflict, core.ErrWriteConflict},
	{CodeDeadlock, core.ErrDeadlock},
	{CodeTxDone, core.ErrTxDone},
	{CodeHasRels, core.ErrHasRels},
	{CodeReadOnly, core.ErrReadOnlyReplica},
}

// CodeOf returns the code of the engine sentinel err wraps, "" for none.
func CodeOf(err error) string {
	for _, ec := range engineCodes {
		if errors.Is(err, ec.err) {
			return ec.code
		}
	}
	return ""
}

// Sentinel returns the engine sentinel code stands for, nil for none (the
// availability codes have no engine-side sentinel; the client owns theirs).
func Sentinel(code string) error {
	for _, ec := range engineCodes {
		if ec.code == code {
			return ec.err
		}
	}
	return nil
}

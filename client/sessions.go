package client

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// Sessions is the module's one cache of server sessions, keyed by address:
// a Pool keeps its hosts' sessions in one, and so do the in-tree components
// that reach peers (the 2PC coordinator, the cluster controller). Borrow
// hands out an idle session to the address or dials one while fewer than the
// per-address bound exist, else waits for a Return; Return parks a healthy
// session and closes any other. It is safe for concurrent use.
type Sessions struct {
	perAddr int
	// closed stops new dials and makes Return close instead of park —
	// without it, a session in flight during Close would be parked back into
	// the just-drained free-list and leak its connection.
	closed atomic.Bool

	mu    sync.Mutex
	addrs map[string]*sessionList
}

// sessionList is one address's bounded free-list.
type sessionList struct {
	free chan *Client
	sem  chan struct{} // dial permits: len(sem) sessions exist
}

// NewSessions returns an empty cache holding at most perAddr sessions to
// any one address. A bound of 1 serialises the callers of an address.
func NewSessions(perAddr int) *Sessions {
	return &Sessions{perAddr: perAddr, addrs: make(map[string]*sessionList)}
}

func (s *Sessions) list(addr string) *sessionList {
	s.mu.Lock()
	defer s.mu.Unlock()
	l := s.addrs[addr]
	if l == nil {
		l = &sessionList{free: make(chan *Client, s.perAddr), sem: make(chan struct{}, s.perAddr)}
		s.addrs[addr] = l
	}
	return l
}

// Borrow returns a session to addr: an idle one, a new one when under the
// per-address bound, else the next one returned — or ctx's error.
func (s *Sessions) Borrow(ctx context.Context, addr string) (*Client, error) {
	if s.closed.Load() {
		return nil, errors.New("client: session cache closed")
	}
	l := s.list(addr)
	select {
	case c := <-l.free:
		return c, nil
	default:
	}
	select {
	case c := <-l.free:
		return c, nil
	case l.sem <- struct{}{}:
		c, err := Dial(ctx, addr)
		if err != nil {
			<-l.sem
			return nil, err
		}
		c.home = l
		return c, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Return gives a borrowed session back. Broken sessions, sessions abandoned
// mid-transaction (the next borrower would silently stage writes into the
// leftover transaction) and any session returned after Close are closed and
// their dial permit freed.
func (s *Sessions) Return(c *Client) {
	l := c.home
	if c.Broken() || c.InTx() || s.closed.Load() {
		c.Close()
		<-l.sem
		return
	}
	// A transaction the server aborted under the borrower is over on both
	// sides; the next borrower owes it no acknowledgement.
	c.endTx()
	l.free <- c // never blocks: a permit was taken for every session
	// A Close may have raced the park above; re-drain so the session cannot
	// sit in a free-list nobody will ever read again.
	if s.closed.Load() {
		l.drain()
	}
}

// drain closes every idle session.
func (l *sessionList) drain() {
	for {
		select {
		case c := <-l.free:
			c.Close()
			<-l.sem
		default:
			return
		}
	}
}

// Close closes every idle session; one still borrowed is closed when it is
// returned. Borrow fails afterwards.
func (s *Sessions) Close() {
	s.closed.Store(true)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, l := range s.addrs {
		l.drain()
	}
}

package wal

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"neograph/internal/metrics"
)

// Syncer is the slice of WAL the batcher drives: it needs to know how far
// the log has been appended and how to make those appends durable. *WAL
// satisfies it; tests substitute fakes to inject fsync failures.
type Syncer interface {
	// NextLSN returns the LSN one past the last appended record.
	NextLSN() uint64
	// Sync makes every record appended before the call durable.
	Sync() error
}

// BatcherStats counts flush activity. SyncedCommits/Flushes is the mean
// group size — the factor by which batching divides the fsync rate.
type BatcherStats struct {
	// Flushes is the number of fsyncs issued.
	Flushes uint64
	// SyncedCommits is the number of WaitDurable calls satisfied.
	SyncedCommits uint64
}

// Batcher turns per-commit fsyncs into group commit. Committers append
// their redo record to the WAL (cheap, buffered) and then call
// WaitDurable(lsn). The first waiter becomes the flush leader: it issues
// one Sync covering every record appended so far and wakes every waiter
// that record range satisfies, so N concurrent committers pay ~1 fsync
// instead of N.
//
// A failed fsync poisons the batcher permanently: after a sync error the
// kernel may have dropped the unwritten pages, so no later fsync can
// retroactively make the lost records durable. Every current and future
// waiter gets the error.
type Batcher struct {
	s Syncer

	mu       sync.Mutex
	cond     *sync.Cond
	durable  uint64 // LSNs below this are durable
	waiting  int    // committers parked in WaitDurable
	flushing bool   // a leader is between Sync start and wakeup
	err      error  // sticky fsync failure
	closed   bool

	flushes atomic.Uint64
	synced  atomic.Uint64
	// depth mirrors waiting with an atomic so scrapes never touch mu —
	// the batcher-depth gauge on /metrics.
	depth atomic.Int64
	// syncHist records each fsync's wall-clock latency in seconds. Always
	// on (one Observe per flush, not per commit); the metrics registry
	// attaches it at server startup.
	syncHist *metrics.Histogram
}

// NewBatcher creates a group-commit batcher over s.
func NewBatcher(s Syncer) *Batcher {
	b := &Batcher{s: s, syncHist: metrics.NewHistogram(metrics.LatencyBuckets())}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Depth returns the number of committers currently parked in
// WaitDurable — the group-commit queue depth.
func (b *Batcher) Depth() int64 { return b.depth.Load() }

// SyncLatency exposes the per-fsync latency histogram (seconds) for
// metrics registration.
func (b *Batcher) SyncLatency() *metrics.Histogram { return b.syncHist }

// WaitDurable blocks until every record below lsn+1 is durable — i.e.
// until a sync that started after the caller's Append has completed.
// Callers must have already appended the record for lsn; the typical
// sequence is lsn, _ := w.Append(p); err := b.WaitDurable(lsn).
func (b *Batcher) WaitDurable(lsn uint64) error {
	b.mu.Lock()
	b.waiting++
	b.depth.Add(1)
	defer b.depth.Add(-1)
	for {
		switch {
		case b.err != nil:
			b.waiting--
			err := b.err
			b.mu.Unlock()
			return err
		case b.durable > lsn:
			b.waiting--
			b.synced.Add(1)
			b.mu.Unlock()
			return nil
		case b.closed && !b.flushing:
			// An in-flight flush may still cover this waiter — only give
			// up on Close once no flush is running.
			b.waiting--
			b.mu.Unlock()
			return ErrClosed
		case !b.flushing:
			b.flushLocked()
			// Loop: re-check durable/err, which flushLocked updated.
		default:
			b.cond.Wait()
		}
	}
}

// flushLocked runs one flush with the caller as leader. Called with b.mu
// held; returns with b.mu held. The leader does not linger: commits that
// append while its fsync is in flight are all covered by the next one.
func (b *Batcher) flushLocked() {
	b.flushing = true
	b.mu.Unlock()

	// Let committers that are already runnable slip their appends in
	// before the target is captured — one scheduler yield is enough to
	// grow the batch noticeably on loaded machines and costs ~µs.
	runtime.Gosched()

	// Everything appended up to here rides this fsync.
	target := b.s.NextLSN()
	t0 := time.Now()
	err := b.s.Sync()
	b.syncHist.ObserveDuration(time.Since(t0))

	b.mu.Lock()
	b.flushing = false
	if err != nil {
		b.err = fmt.Errorf("wal: group commit fsync: %w", err)
	} else {
		b.flushes.Add(1)
		if target > b.durable {
			b.durable = target
		}
	}
	b.cond.Broadcast()
}

// Stats snapshots flush counters.
func (b *Batcher) Stats() BatcherStats {
	return BatcherStats{Flushes: b.flushes.Load(), SyncedCommits: b.synced.Load()}
}

// Err returns the sticky fsync failure, if any.
func (b *Batcher) Err() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err
}

// Close drains the batcher and then rejects future waits. Committers
// already parked in WaitDurable are not abandoned: any in-flight flush is
// waited out and one final flush covers the remaining appends, so a
// commit that raced a clean shutdown is acknowledged rather than failed
// spuriously (its record is durable — wal.Close seals the segment too).
// It does not close the underlying WAL.
func (b *Batcher) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return ErrClosed
	}
	for b.flushing {
		b.cond.Wait()
	}
	if b.err == nil && b.waiting > 0 {
		b.flushLocked()
	}
	b.closed = true
	b.cond.Broadcast()
	b.mu.Unlock()
	return nil
}

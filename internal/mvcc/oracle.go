// Package mvcc implements the multi-version concurrency control kernel of
// the paper: the timestamp oracle that orders transactions, per-entity
// version chains, the active-transaction table that defines the garbage
// collection horizon, and the global doubly-linked version list — sorted
// by commit timestamp — that makes garbage collection proportional to the
// amount of garbage rather than to the size of the store (paper §4).
package mvcc

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// TS is a logical timestamp. Commit timestamps are dense and start at 1;
// 0 is the timestamp of the initial (empty or recovered) snapshot.
type TS = uint64

// oracleRingSize bounds the number of commits that can sit between
// BeginCommit and FinishCommit at once (it far exceeds any plausible
// committer count; BeginCommit yields if a laggard ever keeps a slot a
// full lap behind). Must be a power of two.
const oracleRingSize = 4096

// Oracle issues start and commit timestamps.
//
// The commit watermark is the largest timestamp W such that every commit
// with timestamp ≤ W has finished installing its versions. New
// transactions start at the watermark, which guarantees the snapshot they
// read is fully installed — a reader can never observe half of a
// concurrent commit.
//
// The oracle sits on every transaction's hot path, so it avoids a global
// mutex: StartTS and Watermark are single atomic loads, BeginCommit is an
// atomic increment, and FinishCommit publishes into a ring of finished
// markers (slot ts%N holds ts once that commit has installed). Only the
// watermark advance — a walk over consecutive finished slots — is
// serialised, and it runs lock-free with respect to the fast paths.
type Oracle struct {
	lastCommit atomic.Uint64
	watermark  atomic.Uint64
	// pending counts local commits between BeginCommit and
	// Finish/AbortCommit; ObserveCommit may fast-forward the watermark
	// only when it is zero (a replica applying a stream has no local
	// committers).
	pending atomic.Int64
	// advanceMu serialises watermark advancement; the fast paths never
	// take it for reads.
	advanceMu sync.Mutex
	// advanced (on advanceMu) wakes WaitVisible callers parked behind a
	// lower timestamp that is still installing.
	advanced sync.Cond
	ring     [oracleRingSize]atomic.Uint64
}

// NewOracle returns an oracle whose watermark starts at base. Recovery
// passes the largest commit timestamp found in the store/WAL.
func NewOracle(base TS) *Oracle {
	o := &Oracle{}
	o.advanced.L = &o.advanceMu
	o.lastCommit.Store(base)
	o.watermark.Store(base)
	return o
}

// StartTS returns the snapshot timestamp for a new transaction: the
// current commit watermark (paper §3, the read rule — the most recent
// committed state at transaction start).
func (o *Oracle) StartTS() TS { return o.watermark.Load() }

// BeginCommit assigns the next commit timestamp. The caller must install
// its versions and then call FinishCommit (or AbortCommit) with the same
// timestamp; until then the watermark cannot pass it.
func (o *Oracle) BeginCommit() TS {
	o.pending.Add(1)
	ts := o.lastCommit.Add(1)
	// The slot ts occupies is free once the watermark has consumed the
	// occupant one lap behind; with a 4096-deep ring this only ever spins
	// if thousands of commits are simultaneously mid-install.
	for ts-o.watermark.Load() > oracleRingSize {
		runtime.Gosched()
	}
	return ts
}

// FinishCommit marks ts as fully installed and advances the watermark
// past every consecutive finished commit.
func (o *Oracle) FinishCommit(ts TS) {
	o.ring[ts%oracleRingSize].Store(ts)
	o.pending.Add(-1)
	o.advance()
}

// AbortCommit releases a commit timestamp whose transaction aborted after
// BeginCommit. The timestamp is treated as an empty commit: the watermark
// may pass it.
func (o *Oracle) AbortCommit(ts TS) { o.FinishCommit(ts) }

// advance walks the ring from the watermark over consecutive finished
// slots. A finisher whose slot a concurrent advancer already passed
// re-advances after storing its marker, so no finished commit is ever
// stranded below the watermark.
func (o *Oracle) advance() {
	o.advanceMu.Lock()
	w := o.watermark.Load()
	last := o.lastCommit.Load()
	for w < last && o.ring[(w+1)%oracleRingSize].Load() == w+1 {
		w++
		o.watermark.Store(w)
	}
	o.advanced.Broadcast()
	o.advanceMu.Unlock()
}

// WaitVisible blocks until the watermark has reached ts, i.e. until a
// transaction begun now reads a snapshot that includes commit ts. A
// committer calls it before acknowledging: FinishCommit(ts) alone does
// not move the watermark while a lower timestamp is still installing, and
// acknowledging then would hand the committer's own next Begin a
// snapshot older than the commit it was just told succeeded. One atomic
// load unless such a straggler exists.
func (o *Oracle) WaitVisible(ts TS) {
	if o.watermark.Load() >= ts {
		return
	}
	o.advanceMu.Lock()
	for o.watermark.Load() < ts {
		o.advanced.Wait()
	}
	o.advanceMu.Unlock()
}

// ObserveCommit folds in a commit timestamp applied from a replication
// stream. The replica has no local committers, so an observed commit is
// fully installed by the time this is called and the watermark may
// advance to it (subject to any pending local commits, of which a replica
// has none).
func (o *Oracle) ObserveCommit(ts TS) {
	o.advanceMu.Lock()
	if ts > o.lastCommit.Load() {
		o.lastCommit.Store(ts)
	}
	if o.pending.Load() == 0 {
		if lc := o.lastCommit.Load(); lc > o.watermark.Load() {
			o.watermark.Store(lc)
			o.advanced.Broadcast()
		}
	}
	o.advanceMu.Unlock()
}

// Watermark returns the current commit watermark.
func (o *Oracle) Watermark() TS { return o.watermark.Load() }

// LastCommit returns the highest commit timestamp handed out so far.
func (o *Oracle) LastCommit() TS { return o.lastCommit.Load() }

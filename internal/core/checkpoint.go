package core

import (
	"sort"
	"time"
	"unsafe"

	"neograph/internal/lock"
	"neograph/internal/mvcc"
	"neograph/internal/store"
)

// Checkpoint writes the newest committed version of every dirty entity
// into the persistent store — and only that version, which is the
// paper's answer to vacuum-style GC cost (§4: "only writing to the
// persistent data store the most recent committed version of each data
// item"). After the store is flushed, a checkpoint record is logged and
// WAL segments made redundant by the write-back are removed.
func (e *Engine) Checkpoint() error {
	if e.closed.Load() {
		return ErrClosed
	}
	return e.checkpointLocked()
}

func (e *Engine) checkpointLocked() error {
	e.maintMu.Lock()
	defer e.maintMu.Unlock()
	return e.checkpointMaintLocked()
}

// checkpointMaintLocked is the checkpoint body; the caller holds maintMu
// (WithSnapshot keeps it held after checkpointing to freeze store files
// and WAL truncation while a snapshot streams out).
func (e *Engine) checkpointMaintLocked() (err error) {
	if e.store == nil {
		return nil
	}
	defer func() {
		if err != nil {
			e.stats.checkpointFailures.Add(1)
		} else {
			e.stats.lastCheckpoint.Store(time.Now().UnixNano())
		}
	}()

	// Cut point: block commits for an instant and take the checkpoint's
	// three inputs as one snapshot — the WAL position, the dirty set and
	// the 2PC floor — so that every WAL record below cut corresponds to an
	// entity already in the dirty set.
	e.commitGate.Lock()
	cut := e.wal.NextLSN()
	// Rotate at the cut: every pre-checkpoint record now lives in sealed
	// segments that TruncateBefore can drop once the persist completes;
	// commits during the persist land in the fresh segment.
	if err := e.wal.Rotate(); err != nil {
		e.commitGate.Unlock()
		return err
	}
	e.dirtyMu.Lock()
	keys := make([]entKey, 0, len(e.dirty))
	for k := range e.dirty {
		keys = append(keys, k)
	}
	e.dirty = make(map[entKey]struct{})
	e.dirtyMu.Unlock()
	// Two-phase commit pins the log: an undecided 'P' record is the only
	// copy of an in-doubt transaction's mutations, and an unacked 'D'
	// record is what a restarted coordinator re-pushes from. The floor is
	// read at the cut, with the dirty set: a decision that lands while the
	// persist below runs un-parks its 'P' and queues its installs for the
	// *next* checkpoint, so until then the 'P' record is still their only
	// durable copy.
	if floor, ok := e.twopcFloor(); ok && floor < cut {
		cut = floor
	}
	e.commitGate.Unlock()

	// By file, then by ID: each page of a record file is visited once, so
	// a dirty set larger than the page cache is not written back piecemeal.
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].kind != keys[j].kind {
			return keys[i].kind == lock.KindNode
		}
		return keys[i].id < keys[j].id
	})

	var puts, bytes uint64
	for _, k := range keys {
		o := e.getObject(k)
		if o == nil {
			continue // entity fully collected since it was queued
		}
		head := o.chain.Head()
		if head == nil {
			continue
		}
		switch k.kind {
		case lock.KindNode:
			st, _ := head.Data.(*NodeState)
			if st == nil {
				st = &NodeState{}
			}
			nd := store.NodeData{
				ID:        k.id,
				Labels:    st.Labels,
				Props:     st.Props,
				CommitTS:  head.CommitTS,
				Tombstone: head.Deleted,
			}
			if err := e.store.PutNode(nd); err != nil {
				return err
			}
			bytes += uint64(nodeBytes(st))
		case lock.KindRel:
			st := head.Data.(*RelState) // a tombstone holds the state it deleted
			rd := store.RelData{
				ID:        k.id,
				Type:      st.Type,
				StartNode: st.Start,
				EndNode:   st.End,
				Props:     st.Props,
				CommitTS:  head.CommitTS,
				Tombstone: head.Deleted,
			}
			if err := e.store.PutRel(rd); err != nil {
				return err
			}
			bytes += uint64(relBytes(st))
		}
		puts++
	}
	if err := e.store.Flush(); err != nil {
		return err
	}
	// A replica's WAL must stay a byte-exact prefix of the primary's, so
	// it never appends its own checkpoint marker — the stream contains
	// the primary's markers already. The marker carries the last timestamp
	// issued: timestamps are issued in log order, so every record of one
	// lies before it, but the entities they wrote may since have been reaped
	// and leave recovery nothing else to learn them from.
	if !e.replica.Load() {
		if _, err := e.wal.Append(appendRecord(nil, &record{tag: recCheckpoint, lastTS: e.oracle.LastCommit()})); err != nil {
			return err
		}
	}
	if err := e.wal.Sync(); err != nil {
		return err
	}
	// The replication shipper can hold truncation below the cut so
	// connected replicas still catching up keep their backlog readable.
	if retain, ok := e.walRetainPos(); ok && retain < cut {
		cut = retain
	}
	if err := e.wal.TruncateBefore(cut); err != nil {
		return err
	}
	e.stats.checkpoints.Add(1)
	e.stats.checkpointPuts.Add(puts)
	e.stats.checkpointBytes.Add(bytes)
	return nil
}

// DirtyCount reports entities awaiting checkpoint (test support).
func (e *Engine) DirtyCount() int {
	e.dirtyMu.Lock()
	defer e.dirtyMu.Unlock()
	return len(e.dirty)
}

// nodeBytes and relBytes are the memory one version holds, read off the
// structs themselves: header and state (one allocation), the label slice
// and the property list's encoding, key names included. Label and type
// names are not counted — the token table shares one copy of each.
func nodeBytes(st *NodeState) int {
	return int(unsafe.Sizeof(*st)) + len(st.Labels)*int(unsafe.Sizeof("")) + st.Props.HeapBytes()
}

func relBytes(st *RelState) int { return int(unsafe.Sizeof(*st)) + st.Props.HeapBytes() }

// versionBytes is nodeBytes or relBytes for a version allocated with its
// state, and the bare header for a tombstone, whose Data is the state of
// the version under it.
func versionBytes(v *mvcc.Version) int {
	switch st := v.Data.(type) {
	case *NodeState:
		if &st.ver == v {
			return nodeBytes(st)
		}
	case *RelState:
		if &st.ver == v {
			return relBytes(st)
		}
	}
	return int(unsafe.Sizeof(*v))
}

// VersionBytes returns the total memory held by the versions in the cache
// (E5's accounting of obsolete-version buildup).
func (e *Engine) VersionBytes() int {
	total := 0
	for _, o := range e.objects() {
		o.chain.Each(func(v *mvcc.Version) { total += versionBytes(v) })
	}
	return total
}

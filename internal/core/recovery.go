package core

import (
	"fmt"

	"neograph/internal/lock"
	"neograph/internal/mvcc"
	"neograph/internal/store"
)

// recover rebuilds the object cache, adjacency, indexes and oracle from
// the persistent store and the WAL tail:
//
//  1. every persisted entity image (the newest committed version only,
//     per §4) becomes a single-version chain at its stored commit
//     timestamp; tombstone images re-enter the GC list;
//  2. the WAL tail is folded over it (record.go): commit records newer
//     than the persisted image are re-installed, exactly as if the
//     original transactions had just committed, and the 2PC tables are
//     rebuilt;
//  3. the oracle resumes from the largest commit timestamp seen.
func (e *Engine) recover() error {
	var maxTS mvcc.TS

	seed := func(k entKey, v *mvcc.Version, relStart, relEnd uint64) {
		o := e.ensureObject(k)
		o.start, o.end = relStart, relEnd
		o.chain.Install(v)
		if v.CommitTS > maxTS {
			maxTS = v.CommitTS
		}
		if v.Deleted && e.opts.GCMode == GCThreaded {
			v.SupersededAt = v.CommitTS
			e.gcList.Add(v)
		}
	}

	err := e.store.ScanNodes(func(nd store.NodeData) error {
		// The store hands over the final form: labels in the order a node
		// state wrote them (sorted), their strings shared through its
		// token registry, and properties already packed.
		st := &NodeState{Labels: nd.Labels, Props: nd.Props}
		v := &mvcc.Version{CommitTS: nd.CommitTS, Deleted: nd.Tombstone, Data: st}
		k := entKey{lock.KindNode, nd.ID}
		seed(k, v, 0, 0)
		if !nd.Tombstone {
			e.indexNodeDiff(nd.ID, nil, st, nd.CommitTS)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("core: recover nodes: %w", err)
	}
	err = e.store.ScanRels(func(rd store.RelData) error {
		st := &RelState{Type: rd.Type, Start: rd.StartNode, End: rd.EndNode, Props: rd.Props}
		v := &mvcc.Version{CommitTS: rd.CommitTS, Deleted: rd.Tombstone, Data: st}
		k := entKey{lock.KindRel, rd.ID}
		seed(k, v, rd.StartNode, rd.EndNode)
		if rd.EndNode == rd.StartNode {
			e.addAdjacency(rd.StartNode, rd.ID, adjOut|adjIn)
		} else {
			e.addAdjacency(rd.StartNode, rd.ID, adjOut)
			e.addAdjacency(rd.EndNode, rd.ID, adjIn)
		}
		if !rd.Tombstone {
			e.indexRelDiff(rd.ID, nil, st, rd.CommitTS)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("core: recover rels: %w", err)
	}

	// Fold the WAL tail, exactly as a replica folds the stream. Installs are
	// idempotent per entity (a head already at or past the record's
	// timestamp — persisted by a checkpoint — is left alone), so replaying
	// over the store is safe. Two-phase-commit records rebuild their tables
	// as the log dictates: a 'P' parks and re-arms its guards, its 'D'
	// settles it, and whatever is still parked at the end of the log is in
	// doubt — the resolver will ask the coordinator.
	var replayed []entKey
	e.replaying = true
	err = e.wal.ForEach(func(lsn uint64, payload []byte) error {
		if len(payload) == 0 {
			return nil
		}
		r, err := decodeRecord(payload, e.tok)
		if err != nil {
			return err
		}
		if r.tsOffset() > 0 && r.cts > maxTS {
			maxTS = r.cts
		}
		replayed = append(replayed, e.fold(&r, lsn, nil)...)
		return nil
	})
	if err != nil {
		return fmt.Errorf("core: wal replay: %w", err)
	}
	e.replaying = false
	e.reserveIDs(replayed)
	for _, p := range e.prepared {
		_ = e.lockKeys(p.lockTxn, p.keys) // nobody else holds a lock yet
	}

	e.oracle = mvcc.NewOracle(maxTS)
	return nil
}

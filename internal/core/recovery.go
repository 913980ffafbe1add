package core

import (
	"fmt"

	"neograph/internal/ids"
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
//  2. WAL commit records newer than the persisted image are re-installed
//     (idempotently — older or equal timestamps are skipped), exactly as
//     if the original transactions had just committed;
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

	// Replay the WAL tail through the same redo-apply path the
	// replication applier uses. Records whose effects are already
	// persisted (head commit TS >= record TS) are skipped per entity,
	// making replay idempotent. Two-phase-commit records are folded as
	// the stream dictates: a 'P' parks its mutations, the matching 'D'
	// installs or discards them, and whatever is still parked at the end
	// of the log is in doubt — its guards are re-armed and the resolver
	// will ask the coordinator.
	type pendingPrep struct {
		coordPart uint32
		validate  []ids.ID
		muts      []mutation
		lsn       uint64
	}
	inDoubt := make(map[uint64]*pendingPrep)
	unacked := make(map[uint64]*decidedTxn)
	var replayed []entKey
	err = e.wal.ForEach(func(lsn uint64, payload []byte) error {
		if len(payload) == 0 {
			return nil
		}
		switch payload[0] {
		case recCheckpoint:
			return nil
		case recTrace:
			// Trace-context records only matter to a live replica stream;
			// replay has nobody to hand the span to.
			return nil
		case recCommit:
			cts, muts, err := decodeCommit(payload, e.tok)
			if err != nil {
				return err
			}
			if cts > maxTS {
				maxTS = cts
			}
			replayed = append(replayed, e.applyCommit(cts, muts)...)
			return nil
		case recPrepare:
			gtxn, coordPart, validate, muts, err := decodePrepare(payload, e.tok)
			if err != nil {
				return err
			}
			inDoubt[gtxn] = &pendingPrep{coordPart: coordPart, validate: validate, muts: muts, lsn: lsn}
			return nil
		case recDecision:
			gtxn, commit, cts, parts, err := decodeDecision(payload)
			if err != nil {
				return err
			}
			if p, ok := inDoubt[gtxn]; ok {
				delete(inDoubt, gtxn)
				if commit {
					if cts > maxTS {
						maxTS = cts
					}
					replayed = append(replayed, e.applyCommit(cts, p.muts)...)
				}
			}
			// A commit decision with participants is a coordinator's own:
			// the repush obligation survives restart until 'E'.
			if commit && len(parts) > 0 {
				pm := make(map[uint32]struct{}, len(parts))
				for _, id := range parts {
					pm[id] = struct{}{}
				}
				unacked[gtxn] = &decidedTxn{gtxn: gtxn, commit: true, lsn: lsn, participants: pm}
			}
			return nil
		case recAckEnd:
			gtxn, err := decodeAckEnd(payload)
			if err != nil {
				return err
			}
			delete(unacked, gtxn)
			return nil
		default:
			return fmt.Errorf("core: unknown WAL record tag %q", payload[0])
		}
	})
	if err != nil {
		return fmt.Errorf("core: wal replay: %w", err)
	}
	e.markDirty(replayed)
	e.reserveIDs(replayed)

	e.oracle = mvcc.NewOracle(maxTS)

	// Re-arm the guards of every in-doubt transaction (rearmPrepared also
	// reserves their IDs, so an undecided creation's ID can never be
	// reallocated) and restore the
	// coordinator's unacked-decision obligations.
	for gtxn, p := range inDoubt {
		e.rearmPrepared(gtxn, p.coordPart, p.validate, p.muts, p.lsn)
	}
	e.prepMu.Lock()
	for gtxn, d := range unacked {
		e.decided[gtxn] = d
	}
	e.prepMu.Unlock()
	return nil
}

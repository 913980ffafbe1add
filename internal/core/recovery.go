package core

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"neograph/internal/lock"
	"neograph/internal/mvcc"
	"neograph/internal/store"
)

// OpenReport is what Open did to bring the engine up, for /metrics and the
// log: where a slow restart spent its time.
type OpenReport struct {
	Store  time.Duration // store.Open: journal replay, free lists, tokens
	Scan   time.Duration // store scan into object cache, label index, adjacency
	Replay time.Duration // wal.Open and the fold of the WAL tail

	Nodes, Rels    uint64 // entity images read from the store
	WALRecords     uint64 // log records folded over them
	Workers        int    // goroutines the scan was spread over: 1, or 3 on more than one processor
	JournalReplays uint64 // interrupted store flushes finished first
}

// OpenReport returns the report of this engine's Open (zero in memory-only
// mode).
func (e *Engine) OpenReport() OpenReport { return e.opened }

// scanBatch is how many entities the scan hands to the seeding goroutines
// at a time: a page or two of records, so a hand-over costs next to
// nothing per entity and a goroutine rarely finds its channel empty.
const scanBatch = 256

// seedFrom runs scan, which calls its argument with every entity of one
// kind in ID order, and passes each entity to every one of seeds. On one
// processor that is a loop. On more, the scan and each seed get a
// goroutine: the seeds receive the entities in batches, all of them in
// scan order, so what each builds is what the loop would have built — the
// seeds must not write what another reads. It returns the number of
// goroutines the work was spread over.
func seedFrom[T any](scan func(func(T) error) error, seeds ...func(T)) (int, error) {
	if runtime.GOMAXPROCS(0) == 1 {
		return 1, scan(func(x T) error {
			for _, seed := range seeds {
				seed(x)
			}
			return nil
		})
	}
	var wg sync.WaitGroup
	feeds := make([]chan []T, len(seeds))
	for i, seed := range seeds {
		// Room for a few batches: the seeds take turns being the slow one.
		feeds[i] = make(chan []T, 8)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for batch := range feeds[i] {
				for _, x := range batch {
					seed(x)
				}
			}
		}()
	}
	batch := make([]T, 0, scanBatch)
	hand := func() {
		for _, feed := range feeds {
			feed <- batch
		}
		batch = make([]T, 0, scanBatch)
	}
	err := scan(func(x T) error {
		if batch = append(batch, x); len(batch) == scanBatch {
			hand()
		}
		return nil
	})
	hand()
	for _, feed := range feeds {
		close(feed)
	}
	wg.Wait()
	return 1 + len(seeds), err
}

// recover rebuilds the object cache, adjacency, label index and oracle
// from the persistent store and the WAL tail — not the property indexes,
// which a lookup builds from the object cache when it first names a key
// (propindex.go):
//
//  1. every persisted entity image (the newest committed version only,
//     per §4) becomes a single-version chain at its stored commit
//     timestamp; tombstone images re-enter the GC list;
//  2. the WAL tail is folded over it (record.go): commit records newer
//     than the persisted image are re-installed, exactly as if the
//     original transactions had just committed, and the 2PC tables are
//     rebuilt;
//  3. the oracle resumes from the largest commit timestamp seen.
//
// Step 1 is a pipeline (seedFrom): the store scan reads, and the object
// cache and the label index — for relationships, the object cache and the
// adjacency — are each built by one goroutine of their own, in ID order.
func (e *Engine) recover() error {
	scanStart := time.Now()
	var maxTS mvcc.TS

	seed := func(k entKey, v *mvcc.Version) {
		o := e.ensureObject(k)
		o.chain.Install(v)
		if v.CommitTS > maxTS {
			maxTS = v.CommitTS
		}
		if v.Deleted && e.opts.GCMode == GCThreaded {
			e.gcList.Add(&o.chain, o, v, nil)
		}
	}

	var err error
	e.opened.Workers, err = seedFrom(e.store.ScanNodes,
		func(nd store.NodeData) {
			// The store hands over the final form: labels in the order a node
			// state wrote them (sorted), their strings shared through its
			// token registry, and properties already packed.
			st := &NodeState{Labels: nd.Labels, Props: nd.Props}
			st.ver = mvcc.Version{CommitTS: nd.CommitTS, Deleted: nd.Tombstone, Data: st}
			seed(entKey{lock.KindNode, nd.ID}, &st.ver)
			e.opened.Nodes++
		},
		func(nd store.NodeData) {
			if !nd.Tombstone {
				e.indexLabelDiff(nd.ID, nil, nd.Labels, nd.CommitTS)
			}
		})
	if err != nil {
		return fmt.Errorf("core: recover nodes: %w", err)
	}
	_, err = seedFrom(e.store.ScanRels,
		func(rd store.RelData) {
			st := &RelState{Type: rd.Type, Start: rd.StartNode, End: rd.EndNode, Props: rd.Props}
			st.ver = mvcc.Version{CommitTS: rd.CommitTS, Deleted: rd.Tombstone, Data: st}
			seed(entKey{lock.KindRel, rd.ID}, &st.ver)
			e.opened.Rels++
		},
		func(rd store.RelData) {
			if rd.EndNode == rd.StartNode {
				e.addAdjacency(rd.StartNode, rd.ID, adjOut|adjIn)
			} else {
				e.addAdjacency(rd.StartNode, rd.ID, adjOut)
				e.addAdjacency(rd.EndNode, rd.ID, adjIn)
			}
		})
	if err != nil {
		return fmt.Errorf("core: recover rels: %w", err)
	}
	e.opened.Scan = time.Since(scanStart)
	replayStart := time.Now()

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
		if r.lastTS > maxTS { // a checkpoint marker: see checkpointMaintLocked
			maxTS = r.lastTS
		}
		e.opened.WALRecords++
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
	e.opened.Replay += time.Since(replayStart)
	return nil
}

// Package core implements the paper's contribution: a multi-version
// object cache over the persistent store that provides snapshot isolation
// for a Neo4j-style graph database.
//
// Every node and relationship is represented in the object cache by a
// version chain (internal/mvcc). Transactions read the version visible at
// their start timestamp, stage writes privately, detect write-write
// conflicts through long write locks with a first-updater-wins policy
// (first-committer-wins and the read-committed baseline are selectable),
// and install new versions at commit. Superseded versions are threaded
// onto a global timestamp-sorted list so garbage collection touches only
// garbage; the persistent store receives only the newest committed
// version of each entity, written back by a checkpointer behind a
// write-ahead log.
package core

import (
	"cmp"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"neograph/internal/faultfs"
	"neograph/internal/ids"
	"neograph/internal/index"
	"neograph/internal/lock"
	"neograph/internal/metrics"
	"neograph/internal/mvcc"
	"neograph/internal/store"
	"neograph/internal/trace"
	"neograph/internal/value"
	"neograph/internal/wal"
)

// IsolationLevel selects how a transaction reads and locks.
type IsolationLevel uint8

// Isolation levels.
const (
	// SnapshotIsolation is the paper's contribution: reads from the
	// transaction's start-timestamp snapshot, no read locks, write-write
	// conflict detection.
	SnapshotIsolation IsolationLevel = iota
	// ReadCommitted is Neo4j's native level, the baseline: short read
	// locks on the newest committed version, long (blocking) write locks,
	// no snapshot — exhibits unrepeatable reads and phantoms.
	ReadCommitted
)

func (l IsolationLevel) String() string {
	if l == ReadCommitted {
		return "read-committed"
	}
	return "snapshot-isolation"
}

// ConflictPolicy selects how write-write conflicts are resolved under
// snapshot isolation (paper §3).
type ConflictPolicy uint8

// Conflict policies.
const (
	// FirstUpdaterWins aborts the second transaction to update an entity
	// at the moment it tries (no-wait write locks) — the paper's choice.
	FirstUpdaterWins ConflictPolicy = iota
	// FirstCommitterWins lets both update privately and aborts the one
	// that validates second at commit.
	FirstCommitterWins
)

func (p ConflictPolicy) String() string {
	if p == FirstCommitterWins {
		return "first-committer-wins"
	}
	return "first-updater-wins"
}

// GCMode selects the version garbage collector.
type GCMode uint8

// GC modes.
const (
	// GCThreaded uses the paper's global timestamp-sorted doubly-linked
	// list: collection cost is proportional to garbage collected.
	GCThreaded GCMode = iota
	// GCVacuum scans every version chain in the cache, PostgreSQL
	// VACUUM-style: cost proportional to the whole store. The baseline
	// for experiment E4.
	GCVacuum
)

func (m GCMode) String() string {
	if m == GCVacuum {
		return "vacuum"
	}
	return "threaded"
}

// Errors returned by the engine.
var (
	ErrNotFound      = errors.New("core: entity not found")
	ErrWriteConflict = errors.New("core: write-write conflict")
	ErrTxDone        = errors.New("core: transaction already finished")
	ErrHasRels       = errors.New("core: node still has relationships")
	ErrClosed        = errors.New("core: engine closed")
	// ErrReadOnlyReplica rejects write commits on an engine opened in
	// replica mode: the only writer of a replica is its replication
	// applier, which redo-applies the primary's WAL stream.
	ErrReadOnlyReplica = errors.New("core: read-only replica")
	// ErrDeadlock re-exports the lock manager's deadlock error for the
	// read-committed baseline's blocking locks.
	ErrDeadlock = lock.ErrDeadlock
	// ErrReseedIncomplete refuses to open a data dir whose snapshot
	// re-seed crashed mid-swap: the dir holds a mix of old and new files.
	// The caller must wipe it and fetch the snapshot again.
	ErrReseedIncomplete = errors.New("core: interrupted snapshot re-seed; wipe the data dir and re-seed")
)

// Options configure an Engine.
type Options struct {
	// Dir is the store directory. Empty means a purely in-memory engine:
	// no persistent store, no WAL (used by concurrency benchmarks).
	Dir string
	// DefaultIsolation applies to transactions begun without an explicit
	// level. Default SnapshotIsolation.
	DefaultIsolation IsolationLevel
	// Conflict selects FUW (default) or FCW for SI transactions.
	Conflict ConflictPolicy
	// NoSyncCommits disables the commit WAL fsync entirely (the zero
	// Options value is durable). Benchmarks measuring CPU cost rather than
	// disk latency set this. Otherwise every commit is made durable by the
	// WAL's group commit, one fsync for all the records appended before it.
	NoSyncCommits bool
	// GCMode selects the collector. Default GCThreaded.
	GCMode GCMode
	// GCEvery runs the collector periodically; zero means manual RunGC.
	GCEvery time.Duration
	// CheckpointEvery drives the checkpointer; zero means manual.
	CheckpointEvery time.Duration
	// StoreCachePages is the page-cache capacity per store file.
	StoreCachePages int
	// CommitStripes is the number of stripes the object map, adjacency
	// structure and first-committer-wins validation latches are split
	// into. Transactions whose write footprints touch disjoint stripes
	// validate and install fully in parallel. Zero picks the default
	// (GOMAXPROCS rounded up to a power of two), which is what every
	// database opened through the neograph package gets; tests pin other
	// counts, rounded up to a power of two and capped at 256. 1 is a
	// single global latch.
	CommitStripes int
	// Replica opens the engine read-only for local transactions: write
	// commits fail with ErrReadOnlyReplica, and the WAL receives records
	// exclusively through ApplyReplicated so it stays a byte-exact prefix
	// of the primary's log (checkpoints skip their marker record too).
	// Promote flips a running replica back to a writable primary.
	Replica bool
	// WALSegmentSize overrides the WAL segment rotation size (tests set it
	// to force rotation). Zero means the wal package default.
	WALSegmentSize int64
	// FS is the file-system seam under the WAL, store, and epoch file —
	// nil means the real OS. Crash tests substitute a faultfs.Injector to
	// kill the engine's I/O at scripted points.
	FS faultfs.FS
	// Tracer records commit-pipeline spans (validate per stripe, WAL
	// append, group fsync, quorum wait) for transactions that carry a
	// trace span, and replica.apply spans for trace contexts arriving
	// through the WAL stream. Nil disables tracing entirely.
	Tracer *trace.Tracer
	// PartitionID / PartitionCount place this engine in a hash-partitioned
	// deployment: entity IDs are allocated strided so that
	// id % PartitionCount == PartitionID, making any entity's owning
	// partition computable from its ID alone. PartitionCount <= 1 means
	// unpartitioned (dense IDs, every ID local).
	PartitionID    int
	PartitionCount int
}

// Stats are cumulative engine counters.
type Stats struct {
	Begun           uint64
	Committed       uint64
	Aborted         uint64
	WriteConflicts  uint64
	Deadlocks       uint64
	GCRuns          uint64
	GCCollected     uint64 // versions reclaimed
	GCScanned       uint64 // versions touched (== collected for threaded; whole store for vacuum)
	EntitiesDead    uint64 // chains fully collected
	Checkpoints     uint64
	CheckpointPuts  uint64 // entity images written back
	CheckpointBytes uint64 // approximate bytes written back
	// WALFlushes / WALSyncedCommits measure group commit: the number of
	// commit fsyncs issued and the number of synced commits they covered.
	// SyncedCommits/Flushes is the mean group size.
	WALFlushes       uint64
	WALSyncedCommits uint64
	// CheckpointFailures counts checkpoints that returned an error, the
	// background checkpointer's included — which has nobody to return it to.
	CheckpointFailures uint64
}

// entKey identifies an entity across the node/relationship namespaces.
type entKey struct {
	kind lock.EntityKind
	id   ids.ID
}

// object is a cached entity: its identity plus its version chain, held
// by value. It is the owner the engine threads garbage versions with, so
// the collector hands a dead entity back as its object and last version.
type object struct {
	key   entKey
	chain mvcc.Chain
}

// NodeState is a node version: the chain's header and the node's state in
// one allocation (ver.Data points back at the struct from install on). A
// version is immutable once installed, and a staged write shares its base
// version's Labels and Props until it changes them, so neither is ever
// modified in place.
type NodeState struct {
	ver    mvcc.Version
	Labels []string // sorted, no duplicates
	Props  value.Packed
}

// RelState is a relationship version, laid out like NodeState. Endpoints
// and type are immutable over the relationship's lifetime; they live here
// and nowhere else, so a dead relationship's adjacency is detached with
// the endpoints of the tombstone the collector hands back.
type RelState struct {
	ver        mvcc.Version
	Type       string
	Start, End ids.ID
	Props      value.Packed
}

// stripe is one shard of the engine's in-memory concurrency-critical
// state: a slice of the object and adjacency maps under its own lock,
// plus the first-committer-wins validation latch for the entities that
// hash here. Transactions touching disjoint stripes never contend.
type stripe struct {
	mu    sync.RWMutex          // guards the maps below
	nodes map[ids.ID]*object    // node objects hashed to this stripe
	rels  map[ids.ID]*object    // rel objects hashed to this stripe
	adj   map[ids.ID][]adjEntry // node -> rels ever attached, sorted by rel ID (pruned on rel death)

	// valMu is the per-stripe FCW commit latch: a committing FCW
	// transaction latches every stripe in its write footprint (in index
	// order, so latch acquisition cannot deadlock) across validation and
	// install. With CommitStripes=1 this degenerates to the old single
	// global latch.
	valMu sync.Mutex

	// prep maps entity keys held by prepared-but-undecided cross-
	// partition transactions to their global transaction ID. Guarded by
	// valMu, so first-committer-wins validation — which takes no long
	// locks — sees prepared keys under the latches it already holds.
	// Lock-based transactions are blocked by the prepared transaction's
	// retained long locks instead. Lazily allocated.
	prep map[entKey]uint64

	// conflicts counts FCW validation failures attributed to an entity
	// hashed here — the per-stripe contention series on /metrics. A
	// lopsided distribution means hot keys, not insufficient stripes.
	conflicts atomic.Uint64
}

// Engine is the database engine.
type Engine struct {
	opts   Options
	store  *store.Store // nil in memory-only mode
	wal    *wal.WAL     // nil in memory-only mode
	oracle *mvcc.Oracle
	active *mvcc.ActiveTable
	locks  *lock.Manager
	gcList *mvcc.GCList
	// beginGap, which only tests set, runs inside BeginWith between the
	// registration of a snapshot transaction and the read of its snapshot.
	beginGap func()

	// stripes holds the object cache split into power-of-two shards by
	// entity-key hash; stripeMask selects a shard.
	stripes    []stripe
	stripeMask uint64

	labelIdx *index.LabelIndex
	// The property indexes hold a key's postings from its first lookup on
	// (propindex.go); indexBuilt, when set, hears of every such build.
	nodeProps, relProps *propIndex
	indexBuilt          func(IndexBuild)
	// tok maps label and property-key names to the dense uint32 tokens the
	// indexes are keyed by. Purely in-memory: it is rebuilt from the store
	// and WAL during recovery.
	tok *tokenTable

	// memAlloc is used in memory-only mode in place of store allocators.
	memNodeAlloc, memRelAlloc *ids.Allocator

	// walSeqMu orders commit-timestamp assignment with the WAL append:
	// the record for a lower commit timestamp must land at a lower LSN,
	// or a replica applying the log in LSN order would advance its
	// watermark past a commit it has not applied yet (breaking replica
	// snapshot reads). The WAL already serialises appends internally, so
	// this adds no serial section the log didn't impose — only the atomic
	// timestamp fetch and an 8-byte patch ride inside it.
	walSeqMu sync.Mutex
	// commitGate is held (shared) by every commit from WAL append through
	// dirty marking; the checkpointer takes it exclusively to cut a
	// consistent WAL truncation point.
	commitGate sync.RWMutex

	maintMu sync.Mutex // serialises checkpoint writes and GC store removals
	dirtyMu sync.Mutex
	dirty   map[entKey]struct{} // committed entities awaiting checkpoint

	// retainMu guards retainWAL, a hook installed by the replication
	// shipper: checkpoints keep WAL segments at or above the returned
	// position so connected replicas can still be served their backlog.
	retainMu  sync.Mutex
	retainWAL func() (uint64, bool)

	// replTraceMu guards replTrace, the trace context a replicated 'T'
	// record stashed for the commit record that immediately follows it
	// in the stream (consumed — or discarded — by the very next record).
	replTraceMu sync.Mutex
	replTrace   trace.Context

	// syncWaitMu guards syncWait, the synchronous-replication hook the
	// shipper installs when Options.SyncReplicas > 0: a durable commit's
	// acknowledgement additionally waits until the hook returns — i.e.
	// until the configured quorum of replicas has acked the commit's end
	// position (or the shipper degrades to async on timeout).
	syncWaitMu sync.Mutex
	syncWait   func(endLSN uint64) error

	// replica is the live role flag (Options.Replica is only the opening
	// role); Promote flips it to false on failover.
	replica atomic.Bool
	// fs is the file seam shared by the WAL, store and epoch file.
	fs faultfs.FS
	// epochMu guards the replication epoch history: the generation
	// counters and fork-point LSNs that fence dead timelines out (last
	// entry = current epoch).
	epochMu   sync.Mutex
	epochHist []EpochEntry

	// prepMu guards the two-phase-commit tables: prepared holds
	// in-doubt transactions awaiting a verdict, decided holds this
	// engine's own (coordinator) committed decisions until every
	// participant acked. Both pin the WAL against truncation.
	prepMu   sync.Mutex
	prepared map[uint64]*preparedTxn
	decided  map[uint64]*decidedTxn
	// replaying is set while Open folds the log: no transaction exists yet
	// to lock out, so a parked prepare takes its long locks only once the
	// replay has shown it to be still in doubt.
	replaying bool

	// recordBytes is the size distribution of the records this engine
	// logged (payload, without the WAL's framing): what a commit costs the
	// log, the replication stream and every replica's log.
	recordBytes *metrics.Histogram

	txnSeq  atomic.Uint64
	stats   statsCounters
	closed  atomic.Bool
	bg      sync.WaitGroup
	stopBG  chan struct{}
	stopped sync.Once

	// opened is what Open did and how long it took; not written after.
	opened OpenReport
}

// statsCounters is the atomic backing of Stats.
type statsCounters struct {
	begun, committed, aborted, conflicts, deadlocks atomic.Uint64
	gcRuns, gcCollected, gcScanned, dead            atomic.Uint64
	checkpoints, checkpointPuts, checkpointBytes    atomic.Uint64
	checkpointFailures                              atomic.Uint64
	// lastCheckpoint is when the store last became a complete checkpoint,
	// in Unix nanoseconds: the last successful one, or Open.
	lastCheckpoint atomic.Int64
}

// maxCommitStripes bounds the stripe count: beyond this the per-stripe
// maps cost more in memory and latch-set size than they save in
// contention.
const maxCommitStripes = 256

// resolveStripes turns Options.CommitStripes into the actual power-of-two
// stripe count.
func resolveStripes(n int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > maxCommitStripes {
		n = maxCommitStripes
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Open creates or opens an engine with the given options, running
// recovery when a store directory is present.
func Open(opts Options) (*Engine, error) {
	if opts.StoreCachePages <= 0 {
		opts.StoreCachePages = store.DefaultCachePages
	}
	opts.CommitStripes = resolveStripes(opts.CommitStripes)
	e := &Engine{
		opts:       opts,
		oracle:     mvcc.NewOracle(0),
		active:     mvcc.NewActiveTable(),
		locks:      lock.NewManager(),
		gcList:     mvcc.NewGCList(),
		stripes:    make([]stripe, opts.CommitStripes),
		stripeMask: uint64(opts.CommitStripes - 1),

		labelIdx:    index.NewLabelIndex(),
		nodeProps:   newPropIndex("node_prop", lock.KindNode),
		relProps:    newPropIndex("rel_prop", lock.KindRel),
		tok:         newTokenTable(),
		dirty:       make(map[entKey]struct{}),
		prepared:    make(map[uint64]*preparedTxn),
		decided:     make(map[uint64]*decidedTxn),
		stopBG:      make(chan struct{}),
		recordBytes: metrics.NewHistogram(metrics.ExpBuckets(32, 2, 12)), // 32 B .. 64 KiB
	}
	e.fs = faultfs.OrOS(opts.FS)
	e.replica.Store(opts.Replica)
	if opts.Dir == "" {
		e.makeStripeMaps(0, 0)
		e.memNodeAlloc = ids.NewAllocator()
		e.memRelAlloc = ids.NewAllocator()
		if opts.PartitionCount > 1 {
			e.memNodeAlloc.SetStride(uint64(opts.PartitionID), uint64(opts.PartitionCount))
			e.memRelAlloc.SetStride(uint64(opts.PartitionID), uint64(opts.PartitionCount))
		}
		return e, nil
	}

	// A crashed snapshot re-seed leaves a marker between its destructive
	// swap phases; such a dir holds a mix of old and new files and must
	// be wiped and re-fetched, never opened.
	if _, err := e.fs.Stat(opts.Dir + "/" + ReseedMarkerName); err == nil {
		return nil, fmt.Errorf("%w: marker %s present in %s", ErrReseedIncomplete, ReseedMarkerName, opts.Dir)
	}

	openStart := time.Now()
	st, err := store.Open(opts.Dir, store.Options{CachePages: opts.StoreCachePages, FS: opts.FS})
	if err != nil {
		return nil, err
	}
	e.opened.Store = time.Since(openStart)
	e.opened.JournalReplays = st.JournalReplays()
	if opts.PartitionCount > 1 {
		// Strided IDs: this partition only ever allocates its own
		// congruence class, so ownership is computable client-side from
		// any ID. Must precede recovery (which may extend high waters).
		st.SetIDStride(uint64(opts.PartitionID), uint64(opts.PartitionCount))
	}
	walStart := time.Now()
	w, err := wal.Open(opts.Dir+"/wal", wal.Options{
		NoSync:      opts.NoSyncCommits,
		SegmentSize: opts.WALSegmentSize,
		FS:          opts.FS,
	})
	if err != nil {
		st.Close()
		return nil, err
	}
	e.opened.Replay = time.Since(walStart)
	e.store, e.wal = st, w
	// Recovery fills the maps with every record below the store's high
	// waters; sizing them for that up front spares the rehash-and-copy of
	// growing each one from empty.
	span := uint64(max(opts.PartitionCount, 1)) // strided IDs fill 1/PartitionCount of the range
	e.makeStripeMaps(st.NodeHighWater()/span, st.RelHighWater()/span)
	if err := e.loadEpoch(); err != nil {
		w.Close()
		st.Close()
		return nil, err
	}
	if err := e.recover(); err != nil {
		w.Close()
		st.Close()
		return nil, err
	}
	e.stats.lastCheckpoint.Store(time.Now().UnixNano())
	e.startBackground()
	return e, nil
}

// makeStripeMaps allocates every stripe's maps, sized for nodes and rels
// entities spread evenly over the stripes (the stripe hash mixes IDs).
func (e *Engine) makeStripeMaps(nodes, rels uint64) {
	n := uint64(len(e.stripes))
	for i := range e.stripes {
		s := &e.stripes[i]
		s.nodes = make(map[ids.ID]*object, nodes/n)
		s.rels = make(map[ids.ID]*object, rels/n)
		s.adj = make(map[ids.ID][]adjEntry, nodes/n)
	}
}

// startBackground launches periodic GC and checkpoint drivers when
// configured.
func (e *Engine) startBackground() {
	if e.opts.GCEvery > 0 {
		e.bg.Add(1)
		go func() {
			defer e.bg.Done()
			t := time.NewTicker(e.opts.GCEvery)
			defer t.Stop()
			for {
				select {
				case <-e.stopBG:
					return
				case <-t.C:
					e.RunGC()
				}
			}
		}()
	}
	if e.opts.CheckpointEvery > 0 && e.store != nil {
		e.bg.Add(1)
		go func() {
			defer e.bg.Done()
			t := time.NewTicker(e.opts.CheckpointEvery)
			defer t.Stop()
			for {
				select {
				case <-e.stopBG:
					return
				case <-t.C:
					// A failure is counted (Stats.CheckpointFailures) and the
					// next tick tries again; Close reports its own.
					_ = e.Checkpoint()
				}
			}
		}()
	}
}

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	var flushes, syncedCommits uint64
	if e.wal != nil {
		flushes, syncedCommits = e.wal.GroupStats()
	}
	return Stats{
		WALFlushes:       flushes,
		WALSyncedCommits: syncedCommits,
		Begun:            e.stats.begun.Load(),
		Committed:        e.stats.committed.Load(),
		Aborted:          e.stats.aborted.Load(),
		WriteConflicts:   e.stats.conflicts.Load(),
		Deadlocks:        e.stats.deadlocks.Load(),
		GCRuns:           e.stats.gcRuns.Load(),
		GCCollected:      e.stats.gcCollected.Load(),
		GCScanned:        e.stats.gcScanned.Load(),
		EntitiesDead:     e.stats.dead.Load(),
		Checkpoints:      e.stats.checkpoints.Load(),
		CheckpointPuts:   e.stats.checkpointPuts.Load(),
		CheckpointBytes:  e.stats.checkpointBytes.Load(),

		CheckpointFailures: e.stats.checkpointFailures.Load(),
	}
}

// LastCheckpoint returns when the store last became a complete
// checkpoint: the end of the last successful one, or of Open. Zero in
// memory-only mode.
func (e *Engine) LastCheckpoint() time.Time {
	if ns := e.stats.lastCheckpoint.Load(); ns != 0 {
		return time.Unix(0, ns)
	}
	return time.Time{}
}

// StripeConflicts snapshots the per-stripe FCW conflict counters, in
// stripe-index order — the contention-skew series on /metrics.
func (e *Engine) StripeConflicts() []uint64 {
	out := make([]uint64, len(e.stripes))
	for i := range e.stripes {
		out[i] = e.stripes[i].conflicts.Load()
	}
	return out
}

// RecordBytes exposes the histogram of logged record sizes for /metrics.
func (e *Engine) RecordBytes() *metrics.Histogram { return e.recordBytes }

// CommitBatcher returns the log whose group commit makes commits durable,
// for metrics sampling (queue depth, fsync latency); nil in memory-only
// mode or when commits are unsynced.
func (e *Engine) CommitBatcher() *wal.WAL {
	if e.opts.NoSyncCommits {
		return nil
	}
	return e.wal
}

// Watermark exposes the current commit watermark (newest stable snapshot).
func (e *Engine) Watermark() mvcc.TS { return e.oracle.Watermark() }

// ActiveTransactions returns the number of currently active transactions.
func (e *Engine) ActiveTransactions() int { return e.active.Count() }

// VersionCount reports the total number of versions in the cache and the
// number of entities, for the E5 memory accounting.
func (e *Engine) VersionCount() (versions, entities int) {
	for i := range e.stripes {
		s := &e.stripes[i]
		s.mu.RLock()
		for _, o := range s.nodes {
			versions += o.chain.Len()
		}
		for _, o := range s.rels {
			versions += o.chain.Len()
		}
		entities += len(s.nodes) + len(s.rels)
		s.mu.RUnlock()
	}
	return versions, entities
}

// IndexStats reports the size of each versioned index, keyed by the
// `index` label its /metrics series carry.
func (e *Engine) IndexStats() map[string]index.Stats {
	return map[string]index.Stats{
		"label":          e.labelIdx.Stats(),
		e.nodeProps.name: e.nodeProps.Stats(),
		e.relProps.name:  e.relProps.Stats(),
	}
}

// GCBacklog returns the number of versions waiting on the threaded GC list.
func (e *Engine) GCBacklog() int { return e.gcList.Len() }

// Tracer exposes the engine's tracer (nil when tracing is disabled).
func (e *Engine) Tracer() *trace.Tracer { return e.opts.Tracer }

// Store exposes the underlying persistent store (nil in memory mode), for
// the F1 architecture report.
func (e *Engine) Store() *store.Store { return e.store }

// WAL exposes the write-ahead log (nil in memory mode) for the
// replication shipper, which reads sealed segments and the live tail.
func (e *Engine) WAL() *wal.WAL { return e.wal }

// FS exposes the engine's (possibly fault-injecting) filesystem so the
// replication layer can stream snapshot files through the same faults
// the engine itself sees.
func (e *Engine) FS() faultfs.FS { return e.fs }

// Dir returns the data directory ("" for a memory-only engine).
func (e *Engine) Dir() string { return e.opts.Dir }

// IsReplica reports whether the engine is currently in replica mode
// (opened with Options.Replica and not yet promoted).
func (e *Engine) IsReplica() bool { return e.replica.Load() }

// SetCommitSyncWait installs (or clears, with nil) the synchronous-
// replication hook: when set, every durable commit's acknowledgement
// additionally waits on fn(commit end LSN) — the shipper's quorum wait.
func (e *Engine) SetCommitSyncWait(fn func(endLSN uint64) error) {
	e.syncWaitMu.Lock()
	e.syncWait = fn
	e.syncWaitMu.Unlock()
}

// commitSyncWait resolves the synchronous-replication hook.
func (e *Engine) commitSyncWait() func(uint64) error {
	e.syncWaitMu.Lock()
	fn := e.syncWait
	e.syncWaitMu.Unlock()
	return fn
}

// DurableLSN returns the WAL durability horizon as an end position: the
// log's bytes below it are fsynced. Zero in memory mode.
func (e *Engine) DurableLSN() uint64 {
	if e.wal == nil {
		return 0
	}
	return e.wal.DurableLSN()
}

// AppliedLSN returns the position one past the last WAL record this
// engine holds — on a replica, how much of the primary's log has been
// applied. Zero in memory mode.
func (e *Engine) AppliedLSN() uint64 {
	if e.wal == nil {
		return 0
	}
	return e.wal.NextLSN()
}

// WaitDurable blocks until the WAL's durability horizon reaches pos (an
// end position, e.g. Tx.CommitLSN). It is the opt-in read gate for
// callers that must not act on commits a crash could still erase: commits
// are visible at install but durable only at the batched fsync. Returns
// immediately in memory mode or with fsync disabled.
func (e *Engine) WaitDurable(pos uint64) error {
	w := e.CommitBatcher()
	if w == nil || pos == 0 || w.DurableLSN() >= pos {
		return nil // nothing to wait for, and no wait to count
	}
	return w.WaitDurable(pos)
}

// SyncWAL forces an fsync of the WAL (replication applier's periodic
// durability point on replicas, where no commit path runs).
func (e *Engine) SyncWAL() error {
	if e.wal == nil {
		return nil
	}
	return e.wal.Sync()
}

// SetWALRetain installs (or clears, with nil) the checkpointer's WAL
// retention hook. When set and returning ok, segments at or above the
// returned position survive checkpoint truncation — the replication
// shipper holds this at the minimum position of its connected replicas.
func (e *Engine) SetWALRetain(fn func() (uint64, bool)) {
	e.retainMu.Lock()
	e.retainWAL = fn
	e.retainMu.Unlock()
}

// walRetainPos resolves the retention hook.
func (e *Engine) walRetainPos() (uint64, bool) {
	e.retainMu.Lock()
	fn := e.retainWAL
	e.retainMu.Unlock()
	if fn == nil {
		return 0, false
	}
	return fn()
}

// allocNodeID allocates a node ID from the store (or memory) allocator.
func (e *Engine) allocNodeID() ids.ID {
	if e.store != nil {
		return e.store.AllocNodeID()
	}
	return e.memNodeAlloc.Next()
}

func (e *Engine) allocRelID() ids.ID {
	if e.store != nil {
		return e.store.AllocRelID()
	}
	return e.memRelAlloc.Next()
}

// releaseID returns the ID of an entity that was allocated but never
// committed (an aborted creation) to its allocator.
func (e *Engine) releaseID(k entKey) {
	switch {
	case e.store == nil && k.kind == lock.KindNode:
		e.memNodeAlloc.Release(k.id)
	case e.store == nil:
		e.memRelAlloc.Release(k.id)
	case k.kind == lock.KindNode:
		e.store.ReleaseNodeID(k.id)
	default:
		e.store.ReleaseRelID(k.id)
	}
}

// stripeIndex hashes an entity key to its stripe. Sequential IDs must
// spread across stripes (allocators hand them out densely), so the ID is
// mixed with a Fibonacci/splitmix-style multiply-xor before masking; the
// relationship namespace is offset so node N and rel N land independently.
func (e *Engine) stripeIndex(k entKey) uint64 {
	h := k.id
	if k.kind == lock.KindRel {
		h ^= 0xD6E8FEB86659FD93
	}
	h *= 0x9E3779B97F4A7C15
	h ^= h >> 32
	return h & e.stripeMask
}

// stripeOf returns the stripe owning key.
func (e *Engine) stripeOf(k entKey) *stripe { return &e.stripes[e.stripeIndex(k)] }

// nodeStripe returns the stripe owning a node ID (adjacency lives with
// the node).
func (e *Engine) nodeStripe(id ids.ID) *stripe {
	return e.stripeOf(entKey{lock.KindNode, id})
}

// getObject returns the cached object for key, or nil.
func (e *Engine) getObject(k entKey) *object {
	s := e.stripeOf(k)
	s.mu.RLock()
	defer s.mu.RUnlock()
	if k.kind == lock.KindNode {
		return s.nodes[k.id]
	}
	return s.rels[k.id]
}

// ensureObject returns the cached object for key, creating an empty one
// if absent (used at commit install for created entities).
func (e *Engine) ensureObject(k entKey) *object {
	if o := e.getObject(k); o != nil {
		return o
	}
	s := e.stripeOf(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.nodes
	if k.kind == lock.KindRel {
		m = s.rels
	}
	if o, ok := m[k.id]; ok {
		return o
	}
	o := &object{key: k}
	m[k.id] = o
	return o
}

// adjDir records how a relationship is oriented relative to the node
// that owns the adjacency entry. A self-loop carries both bits.
type adjDir uint8

const (
	adjOut adjDir = 1 << iota
	adjIn
)

// adjEntry is one relationship in a node's adjacency list: the
// relationship's ID above its two orientation bits, so a list sorted by
// entry is sorted by relationship ID. Allocators hand out IDs far below
// 2^62.
type adjEntry uint64

func newAdjEntry(rel ids.ID, d adjDir) adjEntry { return adjEntry(rel<<2) | adjEntry(d) }

func (a adjEntry) rel() ids.ID { return ids.ID(a >> 2) }
func (a adjEntry) dir() adjDir { return adjDir(a & 3) }

// searchAdj returns where rel is, or belongs, in a sorted adjacency list.
func searchAdj(list []adjEntry, rel ids.ID) (int, bool) {
	return slices.BinarySearchFunc(list, rel, func(a adjEntry, rel ids.ID) int {
		return cmp.Compare(a.rel(), rel)
	})
}

// addAdjacency records rel as attached to node with orientation d.
func (e *Engine) addAdjacency(node, rel ids.ID, d adjDir) {
	s := e.nodeStripe(node)
	s.mu.Lock()
	defer s.mu.Unlock()
	list := s.adj[node]
	// Fresh IDs ascend, and so does a recovery scan: try the end first.
	i := len(list)
	if i > 0 && list[i-1].rel() >= rel {
		var found bool
		if i, found = searchAdj(list, rel); found {
			list[i] |= adjEntry(d)
			return
		}
	}
	if len(list) == cap(list) {
		// A quarter of growing room, not append's doubling: most of a
		// graph's adjacency is built once and then read.
		list = append(make([]adjEntry, 0, len(list)+max(2, len(list)/4)), list...)
	}
	s.adj[node] = slices.Insert(list, i, newAdjEntry(rel, d))
}

// removeAdjacency detaches rel from node.
func (e *Engine) removeAdjacency(node, rel ids.ID) {
	s := e.nodeStripe(node)
	s.mu.Lock()
	defer s.mu.Unlock()
	list := s.adj[node]
	i, found := searchAdj(list, rel)
	switch {
	case !found:
	case len(list) == 1:
		delete(s.adj, node)
	default:
		s.adj[node] = slices.Delete(list, i, i+1)
	}
}

// adjacentRels snapshots the rel IDs ever attached to node, pre-filtered
// by orientation: a directed traversal never pays a version-chain walk
// for a relationship pointing the wrong way. Visibility is still decided
// per relationship by its own version chain. The returned IDs are
// ascending and duplicate-free, appended to buf.
func (e *Engine) adjacentRels(node ids.ID, dir Direction, buf []ids.ID) []ids.ID {
	want := adjOut | adjIn
	switch dir {
	case Outgoing:
		want = adjOut
	case Incoming:
		want = adjIn
	}
	s := e.nodeStripe(node)
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, a := range s.adj[node] {
		if a.dir()&want != 0 {
			buf = append(buf, a.rel())
		}
	}
	return buf
}

// markDirty queues committed entities for the checkpointer.
func (e *Engine) markDirty(keys []entKey) {
	if e.store == nil {
		return
	}
	e.dirtyMu.Lock()
	for _, k := range keys {
		e.dirty[k] = struct{}{}
	}
	e.dirtyMu.Unlock()
}

// Close stops background work, checkpoints once, and closes WAL and store.
func (e *Engine) Close() error {
	if e.closed.Swap(true) {
		return ErrClosed
	}
	e.stopped.Do(func() { close(e.stopBG) })
	e.bg.Wait()
	var firstErr error
	if e.store != nil {
		if err := e.checkpointLocked(); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := e.wal.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := e.store.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Crash simulates a process crash for recovery tests: files are closed
// without flushing caches; only WAL-synced and already-flushed data
// survives.
func (e *Engine) Crash() error {
	if e.closed.Swap(true) {
		return ErrClosed
	}
	e.stopped.Do(func() { close(e.stopBG) })
	e.bg.Wait()
	if e.store == nil {
		return nil
	}
	// The WAL writes through to the OS on Append; Close without sync is
	// closest to a crash (synced bytes survive; this process wrote them
	// with write(2), so they are visible to a reopen even unsynced — real
	// durability is exercised by the fsync path, torn tails by wal tests).
	if err := e.wal.Close(); err != nil {
		return err
	}
	return e.store.Crash()
}

func fmtKey(k entKey) string {
	if k.kind == lock.KindNode {
		return fmt.Sprintf("node %d", k.id)
	}
	return fmt.Sprintf("rel %d", k.id)
}

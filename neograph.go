// Package neograph is an embedded graph database with snapshot isolation,
// reproducing "Snapshot Isolation for Neo4j" (Patiño-Martínez et al.,
// EDBT 2016).
//
// The data model is Neo4j's: nodes and relationships (edges) with typed
// properties; nodes additionally carry labels. Transactions run under
// snapshot isolation by default — every read observes the committed state
// as of the transaction's start, writes are private until commit, and
// write-write conflicts between concurrent transactions abort the second
// updater (first-updater-wins). Neo4j's native read committed level is
// available as a baseline, as is a first-committer-wins conflict policy.
//
// Quick start:
//
//	db, err := neograph.Open(neograph.Options{Dir: "/tmp/mygraph"})
//	if err != nil { ... }
//	defer db.Close()
//
//	tx := db.Begin()
//	alice, _ := tx.CreateNode([]string{"Person"}, neograph.Props{"name": neograph.String("alice")})
//	bob, _ := tx.CreateNode([]string{"Person"}, neograph.Props{"name": neograph.String("bob")})
//	tx.CreateRel("KNOWS", alice, bob, nil)
//	if err := tx.Commit(); err != nil { ... }
//
// Opening with an empty Dir gives a purely in-memory database (no WAL, no
// store files) — useful for tests and benchmarks.
//
// # Durability
//
// A nil return from Commit means the transaction's redo record has been
// fsynced to the write-ahead log (unless DisableSyncCommits is set) and
// will be replayed after a crash. Concurrent committers share fsyncs
// through the log's group commit: one fsync covers every record appended
// before it, so multi-writer commit throughput is not bounded by one disk
// flush per transaction.
package neograph

import (
	"cmp"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"neograph/internal/core"
	"neograph/internal/faultfs"
	"neograph/internal/repl"
	"neograph/internal/trace"
)

// Isolation levels for transactions.
const (
	// SnapshotIsolation (default): reads from a stable snapshot, no read
	// locks, first-updater-wins write-write conflict detection.
	SnapshotIsolation = core.SnapshotIsolation
	// ReadCommitted: Neo4j's native level — short read locks, long write
	// locks, no snapshot. Exhibits unrepeatable and phantom reads.
	ReadCommitted = core.ReadCommitted
)

// Conflict policies for snapshot isolation.
const (
	// FirstUpdaterWins aborts the second concurrent updater immediately.
	FirstUpdaterWins = core.FirstUpdaterWins
	// FirstCommitterWins aborts the conflicting transaction at commit.
	FirstCommitterWins = core.FirstCommitterWins
)

// Garbage collector modes.
const (
	// GCThreaded collects through the global timestamp-sorted version
	// list: cost proportional to garbage (the paper's design).
	GCThreaded = core.GCThreaded
	// GCVacuum scans all version chains (the PostgreSQL-style baseline).
	GCVacuum = core.GCVacuum
)

// Errors. Use errors.Is: operations wrap these with context.
var (
	ErrNotFound      = core.ErrNotFound
	ErrWriteConflict = core.ErrWriteConflict
	ErrDeadlock      = core.ErrDeadlock
	ErrTxDone        = core.ErrTxDone
	ErrHasRels       = core.ErrHasRels
	ErrClosed        = core.ErrClosed
	// ErrReadOnlyReplica rejects writes on a database opened with
	// ReplicaOf: writes must go to the primary.
	ErrReadOnlyReplica = core.ErrReadOnlyReplica
)

// NodeID identifies a node; RelID a relationship.
type (
	NodeID = uint64
	RelID  = uint64
)

// Options configure Open.
type Options struct {
	// Dir is the on-disk location of the database. Empty means in-memory.
	Dir string
	// Isolation is the default level for Begin. Zero value is
	// SnapshotIsolation.
	Isolation core.IsolationLevel
	// Conflict selects the SI write-conflict policy. Zero value is
	// FirstUpdaterWins.
	Conflict core.ConflictPolicy
	// DisableSyncCommits skips the commit WAL fsync entirely (durability
	// traded for throughput; the default is durable). This also bypasses
	// group commit.
	DisableSyncCommits bool
	// GCMode selects the version collector. Zero value is GCThreaded.
	GCMode core.GCMode
	// GCInterval runs the collector periodically; zero means GC runs only
	// via RunGC.
	GCInterval time.Duration
	// CheckpointInterval drives background write-back of committed
	// versions to the store; zero means Checkpoint must be called.
	CheckpointInterval time.Duration
	// CachePages is the page-cache capacity per store file (advanced).
	CachePages int
	// ReplicaOf opens the database as a read-only replica streaming the
	// WAL from the primary's replication address (see ReplicationAddr).
	// The replica serves snapshot-isolated reads at its applied position;
	// writes fail with ErrReadOnlyReplica. Requires Dir.
	ReplicaOf string
	// ReplicationAddr, on a primary, listens on this address and streams
	// the WAL to any number of replicas (":0" picks a free port —
	// ReplicationAddress reports it). Requires Dir.
	ReplicationAddr string
	// SyncReplicas makes replication synchronous: a commit is
	// acknowledged only after this many replicas have durably acked its
	// WAL position, so promoting any in-quorum replica after a primary
	// crash loses no acknowledged commit. Zero (the default) keeps
	// replication asynchronous. Applies to the shipper started by
	// ReplicationAddr or by Promote.
	SyncReplicas int
	// SyncReplicaTimeout is the degrade-to-async window for SyncReplicas:
	// a commit that cannot assemble its quorum this long is acknowledged
	// anyway (and counted in ReplStatus.DegradedCommits) so a primary
	// whose replicas died stays available. Zero means 1s; negative waits
	// forever.
	SyncReplicaTimeout time.Duration
	// WALSegmentSize overrides the WAL segment rotation size (tests set it
	// to force rotation; zero = 16 MiB default).
	WALSegmentSize int64
	// FS, when non-nil, routes every file operation (store, WAL, epoch,
	// snapshot re-seed) through the given filesystem — the fault-injection
	// seam used by crash tests. Nil uses the OS.
	FS faultfs.FS
	// Tracer, when non-nil, records commit-pipeline span trees for traced
	// transactions (see Tx.SetTraceSpan): per-stripe validation, WAL
	// append and group fsync, the sync-replication quorum wait, and — on
	// a replica fed by this primary — the replicated apply, all under the
	// trace ID the caller minted. Nil disables engine-side tracing.
	Tracer *trace.Tracer
	// Logger receives the replication endpoints' structured log records
	// (connection state changes, stream refusals) and one line per engine
	// Open saying where its time went. Nil is silent.
	Logger *slog.Logger
	// PartitionID / PartitionCount place this database in a hash-
	// partitioned cluster: it owns node and relationship IDs where
	// id % PartitionCount == PartitionID and allocates only those.
	// PartitionCount <= 1 means unpartitioned (the default).
	PartitionID    int
	PartitionCount int
}

// DB is a neograph database handle, safe for concurrent use.
type DB struct {
	// e is swapped atomically by ReseedFrom, which closes the engine,
	// replaces the data dir with a snapshot, and reopens. Readers racing
	// a re-seed observe either engine; operations on the closed one fail
	// with ErrClosed and are retried by their callers.
	e atomic.Pointer[core.Engine]

	// opts remembers the Open configuration so ReseedFrom can reopen the
	// engine over the re-seeded dir with identical settings.
	opts Options

	// replMu guards the replication endpoints, which Promote swaps at
	// runtime (applier down, shipper up).
	replMu   sync.Mutex
	applier  *repl.Applier       // replica mode: the stream applier
	shipper  *repl.Shipper       // primary mode: the WAL shipper
	shipOpts repl.ShipperOptions // shipper tuning, reused by Promote
	logger   *slog.Logger        // replication endpoint logger, reused by Promote
	// promoted records a successful engine promotion in this process, so
	// a Promote whose shipper failed to bind (port still in use) can be
	// retried to start shipping instead of wedging as "not a replica".
	promoted bool
	// replStopped is set by Close/Crash teardown; a Promote losing that
	// race must fail rather than install a shipper nobody will close.
	replStopped bool
}

// repl snapshots the current replication endpoints.
func (db *DB) repl() (*repl.Applier, *repl.Shipper) {
	db.replMu.Lock()
	defer db.replMu.Unlock()
	return db.applier, db.shipper
}

// eng returns the current engine (swapped atomically by ReseedFrom).
func (db *DB) eng() *core.Engine { return db.e.Load() }

// coreOptions maps Options onto the engine's configuration. replica
// overrides the role — ReseedFrom reopens a demoted ex-primary's engine
// in replica mode regardless of how the process was started.
func coreOptions(opts Options, replica bool) core.Options {
	return core.Options{
		Dir:              opts.Dir,
		DefaultIsolation: opts.Isolation,
		Conflict:         opts.Conflict,
		NoSyncCommits:    opts.DisableSyncCommits,
		GCMode:           opts.GCMode,
		GCEvery:          opts.GCInterval,
		CheckpointEvery:  opts.CheckpointInterval,
		StoreCachePages:  opts.CachePages,
		Replica:          replica,
		WALSegmentSize:   opts.WALSegmentSize,
		FS:               opts.FS,
		Tracer:           opts.Tracer,
		PartitionID:      opts.PartitionID,
		PartitionCount:   opts.PartitionCount,
	}
}

// openEngine opens the engine and logs what its Open did — the numbers of
// core.OpenReport, which /metrics has as neograph_open_* — and arranges
// for its index builds to be logged.
func openEngine(opts Options, replica bool) (*core.Engine, error) {
	e, err := core.Open(coreOptions(opts, replica))
	if err != nil {
		return nil, err
	}
	log := opts.Logger.With("component", "engine")
	if r := e.OpenReport(); opts.Dir != "" {
		log.Info("opened", "dir", opts.Dir,
			"store_s", r.Store.Seconds(), "scan_s", r.Scan.Seconds(), "replay_s", r.Replay.Seconds(),
			"nodes", r.Nodes, "rels", r.Rels, "wal_records", r.WALRecords,
			"workers", r.Workers, "journal_replays", r.JournalReplays)
	}
	// A property key's first lookup on this engine builds its postings
	// (neograph_index_build* on /metrics): say what that cost.
	e.OnIndexBuilt(func(b core.IndexBuild) {
		log.Info("index built", "index", b.Index, "key", b.Key, "entries", b.Entries,
			"scan_s", b.Scan.Seconds(), "side_log", b.SideLog, "exclusive_s", b.Exclusive.Seconds())
	})
	return e, nil
}

// Open opens (creating or recovering as needed) a database.
func Open(opts Options) (*DB, error) {
	opts.Logger = cmp.Or(opts.Logger, slog.New(slog.DiscardHandler))
	if opts.ReplicaOf != "" && opts.ReplicationAddr != "" {
		return nil, errors.New("neograph: cascading replication (ReplicaOf + ReplicationAddr) is not supported")
	}
	if (opts.ReplicaOf != "" || opts.ReplicationAddr != "") && opts.Dir == "" {
		return nil, errors.New("neograph: replication requires a persistent Dir")
	}
	e, err := openEngine(opts, opts.ReplicaOf != "")
	if err != nil {
		return nil, err
	}
	db := &DB{opts: opts, logger: opts.Logger, shipOpts: repl.ShipperOptions{
		SyncReplicas: opts.SyncReplicas,
		SyncTimeout:  opts.SyncReplicaTimeout,
		Logger:       opts.Logger,
	}}
	db.e.Store(e)
	if opts.ReplicaOf != "" {
		a, err := repl.NewApplier(e, opts.ReplicaOf, repl.ApplierOptions{Logger: opts.Logger})
		if err != nil {
			e.Close()
			return nil, err
		}
		a.Start()
		db.applier = a
	}
	if opts.ReplicationAddr != "" {
		s, err := repl.NewShipper(e, opts.ReplicationAddr, db.shipOpts)
		if err != nil {
			e.Close()
			return nil, err
		}
		db.shipper = s
	}
	return db, nil
}

// Promote turns a replica into a writable primary: the stream applier is
// stopped, the applied WAL tail is sealed, the replication epoch is
// bumped (fencing the old primary out of the new timeline), and local
// write commits are accepted from here on. When replicationAddr is
// non-empty a WAL shipper is started there — typically the dead
// primary's replication address — so surviving replicas can re-point (or
// simply reconnect) and follow the promoted node. SyncReplicas from Open
// carries over to the new shipper.
func (db *DB) Promote(replicationAddr string) error {
	db.replMu.Lock()
	defer db.replMu.Unlock()
	if db.replStopped {
		return errors.New("neograph: promote: database closed")
	}
	switch {
	case db.applier != nil:
		db.applier.Close()
		if err := db.eng().Promote(); err != nil {
			// The engine is still a replica; restart the applier rather
			// than leave the node following nothing.
			a, aerr := repl.NewApplier(db.eng(), db.applier.Status().PrimaryAddr, repl.ApplierOptions{Logger: db.logger})
			if aerr == nil {
				a.Start()
				db.applier = a
			}
			return err
		}
		db.applier = nil
		db.promoted = true
	case db.promoted && db.shipper == nil && replicationAddr != "":
		// Retry path: an earlier Promote flipped the engine but its
		// shipper failed to bind (e.g. the dead primary's port was still
		// held). Fall through to start shipping now; without an address
		// a repeated promote is an error like any other, not a silent OK.
	default:
		return errors.New("neograph: promote: not a replica")
	}
	if replicationAddr != "" && db.shipper == nil {
		s, err := repl.NewShipper(db.eng(), replicationAddr, db.shipOpts)
		if err != nil {
			return fmt.Errorf("neograph: promoted but cannot ship (retry Promote once the address frees): %w", err)
		}
		db.shipper = s
	}
	return nil
}

// Retarget points a replica's stream applier at a different primary —
// the fleet-rewire step after a failover: survivors of the dead primary
// re-target the promoted node and resume the stream from their own log
// end. A no-op when already following primaryReplAddr.
func (db *DB) Retarget(primaryReplAddr string) error {
	db.replMu.Lock()
	defer db.replMu.Unlock()
	if db.replStopped {
		return errors.New("neograph: retarget: database closed")
	}
	if db.applier == nil {
		return errors.New("neograph: retarget: not a replica")
	}
	prev := db.applier.Status().PrimaryAddr
	if prev == primaryReplAddr {
		return nil
	}
	db.applier.Close()
	a, err := repl.NewApplier(db.eng(), primaryReplAddr, repl.ApplierOptions{Logger: db.logger})
	if err != nil {
		// The engine is still a replica; re-point at the old primary
		// rather than leave the node following nothing.
		if a2, aerr := repl.NewApplier(db.eng(), prev, repl.ApplierOptions{Logger: db.logger}); aerr == nil {
			a2.Start()
			db.applier = a2
		}
		return fmt.Errorf("neograph: retarget: %w", err)
	}
	a.Start()
	db.applier = a
	return nil
}

// ReseedFrom rebuilds this node from a snapshot fetched off the given
// primary's replication address, then rejoins its stream as a replica.
// It is the automatic answer to "re-seed required": the local engine is
// closed, the data dir is replaced by a consistent checkpoint + WAL tail
// (crash-safe — see repl.FetchSnapshot), and a fresh replica engine
// opens over it and starts applying. It also demotes: a stale primary
// that lost a double-claim race re-seeds from the winner and comes back
// as its replica.
func (db *DB) ReseedFrom(primaryReplAddr string) error {
	db.replMu.Lock()
	defer db.replMu.Unlock()
	if db.replStopped {
		return errors.New("neograph: reseed: database closed")
	}
	if db.opts.Dir == "" {
		return errors.New("neograph: reseed requires a persistent Dir")
	}
	if db.applier != nil {
		db.applier.Close()
		db.applier = nil
	}
	if db.shipper != nil {
		db.shipper.Close()
		db.shipper = nil
	}
	old := db.eng()
	old.Crash() // no flush — the dir is about to be replaced wholesale

	restart := func() (*repl.Applier, error) {
		e, err := openEngine(db.opts, true)
		if err != nil {
			return nil, err
		}
		db.e.Store(e)
		db.promoted = false
		a, err := repl.NewApplier(e, primaryReplAddr, repl.ApplierOptions{Logger: db.logger})
		if err != nil {
			return nil, err
		}
		a.Start()
		db.applier = a
		return a, nil
	}

	if _, err := repl.FetchSnapshot(db.opts.Dir, db.opts.FS, primaryReplAddr, repl.FetchOptions{Logger: db.logger}); err != nil {
		// A fetch that never reached its destructive phase left the old
		// dir intact — reopen it so the node keeps serving and the
		// controller can retry. A dir poisoned mid-swap (marker present)
		// refuses to open; only another ReseedFrom can heal it.
		if _, rerr := restart(); rerr != nil {
			return fmt.Errorf("neograph: reseed: %w (and reopen failed: %v)", err, rerr)
		}
		return fmt.Errorf("neograph: reseed: %w", err)
	}
	if _, err := restart(); err != nil {
		return fmt.Errorf("neograph: reseed: reopen: %w", err)
	}
	return nil
}

// Close stops replication, checkpoints and closes the database.
func (db *DB) Close() error {
	db.stopRepl()
	return db.eng().Close()
}

// Crash simulates a process crash for recovery and failover tests:
// replication endpoints are torn down and files are closed without
// flushing caches (see Engine.Crash).
func (db *DB) Crash() error {
	db.stopRepl()
	return db.eng().Crash()
}

// stopRepl tears down the replication endpoints under replMu, so a
// concurrent Promote either completes first (its shipper is closed
// here) or observes replStopped and fails — never installs a shipper
// that outlives the database.
func (db *DB) stopRepl() {
	db.replMu.Lock()
	defer db.replMu.Unlock()
	db.replStopped = true
	if db.applier != nil {
		db.applier.Close()
		db.applier = nil
	}
	if db.shipper != nil {
		db.shipper.Close()
		db.shipper = nil
	}
}

// Begin starts a transaction at the database's default isolation level.
func (db *DB) Begin() *Tx { return &Tx{t: db.eng().Begin()} }

// BeginIsolation starts a transaction at an explicit isolation level.
func (db *DB) BeginIsolation(level core.IsolationLevel) *Tx {
	return &Tx{t: db.eng().BeginWith(core.TxOptions{Isolation: level})}
}

// Update runs fn in a transaction, committing on nil and aborting on
// error. Write-write conflicts and deadlocks are retried up to maxRetries
// times with jittered exponential backoff — the canonical SI usage
// pattern: the aborted loser is simply re-run on a fresh snapshot.
func (db *DB) Update(maxRetries int, fn func(*Tx) error) error {
	backoff := 50 * time.Microsecond
	for attempt := 0; ; attempt++ {
		tx := db.Begin()
		err := fn(tx)
		if err == nil {
			err = tx.Commit()
			if err == nil {
				return nil
			}
		} else {
			tx.Abort()
		}
		if !errors.Is(err, ErrWriteConflict) && !errors.Is(err, ErrDeadlock) {
			return err
		}
		if attempt >= maxRetries {
			return err
		}
		time.Sleep(time.Duration(rand.Int63n(int64(backoff))) + backoff/2)
		if backoff < 10*time.Millisecond {
			backoff *= 2
		}
	}
}

// View runs fn in a read-only snapshot transaction (always aborted — a
// snapshot read has nothing to commit).
func (db *DB) View(fn func(*Tx) error) error {
	tx := db.Begin()
	defer tx.Abort()
	return fn(tx)
}

// RunGC performs one garbage collection cycle and returns its report.
func (db *DB) RunGC() core.GCReport { return db.eng().RunGC() }

// Checkpoint writes the newest committed versions back to the store and
// prunes the WAL.
func (db *DB) Checkpoint() error { return db.eng().Checkpoint() }

// Stats returns cumulative engine counters.
func (db *DB) Stats() core.Stats { return db.eng().Stats() }

// VersionCount reports (versions, entities) held in the object cache.
func (db *DB) VersionCount() (int, int) { return db.eng().VersionCount() }

// VersionBytes estimates the memory held by version payloads.
func (db *DB) VersionBytes() int { return db.eng().VersionBytes() }

// GCBacklog reports versions awaiting threaded collection.
func (db *DB) GCBacklog() int { return db.eng().GCBacklog() }

// Watermark returns the newest stable commit timestamp.
func (db *DB) Watermark() uint64 { return db.eng().Watermark() }

// ---- replication ----

// ReplStatus describes a database's replication role and progress.
type ReplStatus struct {
	// Role is "primary" (shipping its WAL), "replica", or "standalone".
	Role string `json:"role"`
	// DurableLSN is the local WAL durability horizon (end position).
	DurableLSN uint64 `json:"durable_lsn"`
	// AppliedLSN is one past the last WAL record held locally; on a
	// replica, how much of the primary's log has been applied.
	AppliedLSN uint64 `json:"applied_lsn"`
	// Replica-side details (Role == "replica").
	PrimaryAddr    string `json:"primary_addr,omitempty"`
	Connected      bool   `json:"connected,omitempty"`
	PrimaryDurable uint64 `json:"primary_durable,omitempty"`
	// LagSeconds is how long this replica has continuously been behind
	// the primary's durability horizon (0 when caught up).
	LagSeconds float64 `json:"lag_seconds,omitempty"`
	LastError  string  `json:"last_error,omitempty"`
	// ReseedRequired reports that this replica's log can never resume
	// the stream (diverged past a fork point, behind the primary's
	// retained WAL, or conflicting epoch histories); ReseedFrom — or the
	// cluster controller — must rebuild it from a snapshot.
	ReseedRequired bool `json:"reseed_required,omitempty"`
	// Primary-side details (Role == "primary").
	ReplicationAddr string             `json:"replication_addr,omitempty"`
	Replicas        []repl.ReplicaInfo `json:"replicas,omitempty"`
	// SyncReplicas is the configured commit quorum (0 = async);
	// DegradedCommits counts commits acknowledged without that quorum
	// because the degrade timeout elapsed.
	SyncReplicas    int    `json:"sync_replicas,omitempty"`
	DegradedCommits uint64 `json:"degraded_commits,omitempty"`
	// Epoch is the replication generation; a promotion bumps it.
	Epoch uint64 `json:"epoch,omitempty"`
}

// IsReplica reports whether the database is currently a replica (opened
// with ReplicaOf and not promoted).
func (db *DB) IsReplica() bool {
	a, _ := db.repl()
	return a != nil
}

// PrimaryAddr returns the primary's replication address on a replica.
func (db *DB) PrimaryAddr() string {
	a, _ := db.repl()
	if a == nil {
		return ""
	}
	return a.Status().PrimaryAddr
}

// ReplicationAddress returns the bound WAL-shipping address on a primary
// (useful with ReplicationAddr ":0").
func (db *DB) ReplicationAddress() string {
	_, s := db.repl()
	if s == nil {
		return ""
	}
	return s.Addr()
}

// Epoch returns the node's replication epoch — the generation counter a
// promotion bumps — and the WAL position at which that epoch began.
func (db *DB) Epoch() (epoch, startLSN uint64) { return db.eng().Epoch() }

// ReplStatus snapshots replication state for status endpoints.
func (db *DB) ReplStatus() ReplStatus {
	st := ReplStatus{
		Role:       "standalone",
		DurableLSN: db.eng().DurableLSN(),
		AppliedLSN: db.eng().AppliedLSN(),
	}
	st.Epoch, _ = db.eng().Epoch()
	db.replMu.Lock()
	a, s, promoted := db.applier, db.shipper, db.promoted
	db.replMu.Unlock()
	switch {
	case a != nil:
		as := a.Status()
		st.Role = "replica"
		st.PrimaryAddr = as.PrimaryAddr
		st.Connected = as.Connected
		st.PrimaryDurable = as.PrimaryDurable
		st.LagSeconds = as.LagSeconds
		st.LastError = as.LastError
		st.ReseedRequired = as.ReseedRequired
	case s != nil:
		st.Role = "primary"
		st.ReplicationAddr = s.Addr()
		st.Replicas = s.Replicas()
		st.SyncReplicas = db.shipOpts.SyncReplicas
		st.DegradedCommits = s.Degraded()
	case promoted:
		// Promoted without a shipper (Promote("")): still a writable
		// primary — the runbook's "role flips to primary" must hold even
		// before shipping starts.
		st.Role = "primary"
	}
	return st
}

// DurableLSN returns the WAL durability horizon (an end position).
func (db *DB) DurableLSN() uint64 { return db.eng().DurableLSN() }

// AppliedLSN returns one past the last WAL record held locally.
func (db *DB) AppliedLSN() uint64 { return db.eng().AppliedLSN() }

// WaitDurable blocks until the WAL durability horizon reaches pos — the
// opt-in read gate for callers that must not act on a commit a crash
// could still erase. Pass a Tx.CommitLSN token; zero returns immediately.
func (db *DB) WaitDurable(pos uint64) error { return db.eng().WaitDurable(pos) }

// WaitApplied blocks until this replica has applied the primary's log up
// to pos (a Tx.CommitLSN token from the primary) — the read-your-writes
// gate. A zero timeout waits indefinitely. On a non-replica it falls
// back to WaitDurable: the local log *is* the source of truth there.
func (db *DB) WaitApplied(pos uint64, timeout time.Duration) error {
	a, _ := db.repl()
	if a == nil {
		return db.eng().WaitDurable(pos)
	}
	return a.WaitApplied(pos, timeout)
}

// Engine exposes the underlying engine for advanced uses (the bench
// harness reads store file sizes through it).
func (db *DB) Engine() *core.Engine { return db.eng() }

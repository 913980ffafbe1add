package server

import (
	"maps"
	"slices"
	"strconv"
	"time"

	"neograph"
	"neograph/internal/core"
	"neograph/internal/metrics"
	"neograph/internal/store"
	"neograph/internal/wire"
)

// Op classes for the per-op latency histograms: one series per family
// keeps label cardinality bounded while still separating the latency
// populations that differ by orders of magnitude.
const (
	classRead  = "read"
	classWrite = "write"
	classBatch = "batch"
	classTx    = "tx"
	classAdmin = "admin"
)

// opClass maps a wire op to its latency family.
func opClass(op string) string {
	switch op {
	case wire.OpBatch:
		return classBatch
	case wire.OpBegin, wire.OpCommit, wire.OpAbort:
		return classTx
	case wire.OpPing, wire.OpStats, wire.OpGC, wire.OpCheckpoint,
		wire.OpReplStatus, wire.OpPromote:
		return classAdmin
	default:
		if wire.ShapeOf(op).Write {
			return classWrite
		}
		return classRead
	}
}

// serverMetrics holds the per-server hot-path instruments. Everything a
// request touches is an atomic op on a pre-registered series — no lock,
// no allocation, no map write.
type serverMetrics struct {
	sessions  *metrics.Gauge
	latency   map[string]*metrics.Histogram
	batchOps  *metrics.Histogram
	txnFrames *metrics.Histogram
}

// newServerMetrics registers the server's operational series on reg,
// sampling admission state straight from s.
func newServerMetrics(reg *metrics.Registry, s *Server) *serverMetrics {
	m := &serverMetrics{
		sessions: reg.Gauge("neograph_server_sessions", "open client sessions"),
		latency:  make(map[string]*metrics.Histogram, 5),
	}
	for _, class := range []string{classRead, classWrite, classBatch, classTx, classAdmin} {
		m.latency[class] = reg.Histogram("neograph_server_request_seconds",
			"request dispatch latency by op class", metrics.LatencyBuckets(),
			metrics.L("class", class))
	}
	m.batchOps = reg.Histogram("neograph_server_batch_ops",
		"sub-operations per batch request", metrics.ExpBuckets(1, 4, 8))
	m.txnFrames = reg.Histogram("neograph_server_txn_frames",
		"request frames an explicit transaction spanned, begin to commit or abort",
		[]float64{1, 2, 3, 4, 6, 8, 12, 16, 32, 64})
	reg.GaugeFunc("neograph_server_requests_inflight",
		"requests admitted and not yet responded",
		func() float64 { return float64(s.inflight.Load()) })
	reg.GaugeFunc("neograph_server_queued_bytes",
		"admitted request-frame bytes held in flight",
		func() float64 { return float64(s.queuedBytes.Load()) })
	reg.CounterFunc("neograph_server_requests_admitted_total",
		"requests past admission control",
		func() float64 { return float64(s.admitted.Load()) })
	reg.CounterFunc("neograph_server_requests_rejected_total",
		"requests rejected with the overloaded code",
		func() float64 { return float64(s.rejected.Load()) })
	return m
}

// observe records one dispatched request; a traced request leaves its
// trace ID as the latency histogram's exemplar.
func (m *serverMetrics) observe(req *wire.Request, d time.Duration, traceID string) {
	if h := m.latency[opClass(req.Op)]; h != nil {
		if traceID != "" {
			h.ObserveExemplar(d.Seconds(), traceID)
		} else {
			h.ObserveDuration(d)
		}
	}
	if req.Op == wire.OpBatch {
		m.batchOps.Observe(float64(len(req.Batch)))
	}
}

// RegisterDBMetrics wires a database's engine, WAL, page-cache and
// replication series into reg. Everything is sampled at scrape time from
// the components' own atomic counters — registering metrics adds zero
// work to commit or read paths. Call once per DB per registry.
//
// Every series reads through db.Engine() when scraped: a re-seed closes
// the engine and opens another, and a series bound to the first would
// report a dead engine for ever. Which series exist is settled here, from
// what the options fix for every engine the database will open (stripes,
// durability, group commit, page-cache shards).
func RegisterDBMetrics(reg *metrics.Registry, db *neograph.DB) {
	e := db.Engine

	// Engine: transaction outcomes and MVCC state.
	reg.CounterFunc("neograph_txn_begun_total", "transactions begun",
		func() float64 { return float64(db.Stats().Begun) })
	reg.CounterFunc("neograph_txn_committed_total", "transactions committed",
		func() float64 { return float64(db.Stats().Committed) })
	reg.CounterFunc("neograph_txn_aborted_total", "transactions aborted",
		func() float64 { return float64(db.Stats().Aborted) })
	reg.CounterFunc("neograph_txn_conflicts_total", "first-committer-wins validation failures",
		func() float64 { return float64(db.Stats().WriteConflicts) })
	reg.CounterFunc("neograph_txn_deadlocks_total", "lock-wait deadlocks broken",
		func() float64 { return float64(db.Stats().Deadlocks) })
	reg.GaugeFunc("neograph_txn_active", "currently active transactions",
		func() float64 { return float64(e().ActiveTransactions()) })
	reg.GaugeFunc("neograph_oracle_watermark", "newest stable snapshot timestamp",
		func() float64 { return float64(e().Watermark()) })
	reg.CounterFunc("neograph_gc_collected_total", "versions reclaimed by GC",
		func() float64 { return float64(db.Stats().GCCollected) })
	reg.CounterFunc("neograph_checkpoints_total", "checkpoints written",
		func() float64 { return float64(db.Stats().Checkpoints) })
	reg.CounterFunc("neograph_checkpoint_failures_total",
		"checkpoints that failed, the background checkpointer's included",
		func() float64 { return float64(db.Stats().CheckpointFailures) })
	reg.GaugeFunc("neograph_last_checkpoint_age_seconds",
		"time since the store last became a complete checkpoint (the last successful one, or Open)",
		func() float64 {
			if at := e().LastCheckpoint(); !at.IsZero() {
				return time.Since(at).Seconds()
			}
			return 0
		})

	// Open: why this node took as long as it did to come back.
	opened := func() core.OpenReport { return e().OpenReport() }
	const (
		openSeconds  = "time the last Open spent per stage"
		openEntities = "what the last Open read: store images and log records"
	)
	reg.GaugeFunc("neograph_open_seconds", openSeconds,
		func() float64 { return opened().Store.Seconds() }, metrics.L("stage", "store"))
	reg.GaugeFunc("neograph_open_seconds", openSeconds,
		func() float64 { return opened().Scan.Seconds() }, metrics.L("stage", "scan"))
	reg.GaugeFunc("neograph_open_seconds", openSeconds,
		func() float64 { return opened().Replay.Seconds() }, metrics.L("stage", "replay"))
	reg.GaugeFunc("neograph_open_entities", openEntities,
		func() float64 { return float64(opened().Nodes) }, metrics.L("kind", "node"))
	reg.GaugeFunc("neograph_open_entities", openEntities,
		func() float64 { return float64(opened().Rels) }, metrics.L("kind", "rel"))
	reg.GaugeFunc("neograph_open_entities", openEntities,
		func() float64 { return float64(opened().WALRecords) }, metrics.L("kind", "wal_record"))
	reg.GaugeFunc("neograph_open_workers",
		"goroutines the last Open's store scan was spread over: 1, or 3 (scan, object cache, label index or adjacency) on more than one processor",
		func() float64 { return float64(opened().Workers) })
	reg.CounterFunc("neograph_store_journal_replays_total",
		"interrupted store flushes that Open finished from their journal",
		func() float64 { return float64(opened().JournalReplays) })

	// Versioned indexes: what they hold and what their collector still owes.
	// Keys and entries follow the live data; pending removals drain to zero
	// whenever the horizon catches up. A property index holds a property
	// key's entries from the first lookup that names the key.
	for _, ix := range slices.Sorted(maps.Keys(e().IndexStats())) {
		reg.GaugeFunc("neograph_index_keys", "distinct index keys holding an entry",
			func() float64 { return float64(e().IndexStats()[ix].Keys) }, metrics.L("index", ix))
		reg.GaugeFunc("neograph_index_entries", "versioned index entries, live and removed",
			func() float64 { return float64(e().IndexStats()[ix].Entries) }, metrics.L("index", ix))
		reg.GaugeFunc("neograph_index_pending_removals", "removed index entries awaiting the GC horizon",
			func() float64 { return float64(e().IndexStats()[ix].PendingRemovals) }, metrics.L("index", ix))
	}
	for _, ix := range slices.Sorted(maps.Keys(e().IndexBuildSeconds())) {
		builds := func() float64 {
			n := 0
			for _, b := range e().IndexBuilds() {
				if b.Index == ix {
					n++
				}
			}
			return float64(n)
		}
		reg.GaugeFunc("neograph_index_materialised_keys",
			"property keys this engine holds postings for: the keys looked up since its Open", builds, metrics.L("index", ix))
		reg.CounterFunc("neograph_index_builds_total",
			"first lookups of a property key, each of which built its postings", builds, metrics.L("index", ix))
		reg.HistogramFunc("neograph_index_build_seconds", "how long a property key's first lookup took to build its postings",
			func() *metrics.Histogram { return e().IndexBuildSeconds()[ix] }, metrics.L("index", ix))
	}

	// Per-stripe FCW conflicts: the contention-skew view. One series per
	// stripe, sampled from the stripe's own atomic.
	for i := range e().StripeConflicts() {
		reg.CounterFunc("neograph_stripe_conflicts_total",
			"FCW validation failures by commit stripe",
			func() float64 { return float64(e().StripeConflicts()[i]) },
			metrics.L("stripe", strconv.Itoa(i)))
	}

	// WAL: durability horizon and the group-commit batcher.
	reg.GaugeFunc("neograph_wal_durable_lsn", "WAL durability horizon",
		func() float64 { return float64(db.DurableLSN()) })
	reg.GaugeFunc("neograph_wal_applied_lsn", "one past the last WAL record held locally",
		func() float64 { return float64(db.AppliedLSN()) })
	reg.CounterFunc("neograph_wal_flushes_total", "group-commit fsyncs issued",
		func() float64 { return float64(db.Stats().WALFlushes) })
	reg.CounterFunc("neograph_wal_synced_commits_total", "commits made durable",
		func() float64 { return float64(db.Stats().WALSyncedCommits) })
	if e().WAL() != nil {
		reg.CounterFunc("neograph_wal_append_failures_total",
			"WAL appends whose write failed (the commit aborted, the segment was rewound)",
			func() float64 { return float64(e().WAL().AppendFailures()) })
		reg.HistogramFunc("neograph_commit_record_bytes",
			"payload bytes of each logged commit, prepare and decision record",
			func() *metrics.Histogram { return e().RecordBytes() })
	}
	if e().CommitBatcher() != nil {
		reg.GaugeFunc("neograph_wal_batcher_depth", "committers parked in group commit",
			func() float64 { return float64(e().CommitBatcher().Depth()) })
		reg.HistogramFunc("neograph_wal_fsync_seconds", "group-commit fsync latency",
			func() *metrics.Histogram { return e().CommitBatcher().SyncLatency() })
	}

	// Page cache: per-file aggregates plus the per-shard hit/miss split.
	if e().Store() != nil {
		st := func() *store.Store { return e().Store() }
		for _, file := range []string{"nodes", "rels", "props", "dyn"} {
			reg.CounterFunc("neograph_pagecache_hits_total", "page-cache hits by store file",
				func() float64 { return float64(st().CacheStats()[file].Hits) },
				metrics.L("file", file))
			reg.CounterFunc("neograph_pagecache_misses_total", "page-cache misses by store file",
				func() float64 { return float64(st().CacheStats()[file].Misses) },
				metrics.L("file", file))
			reg.CounterFunc("neograph_pagecache_evictions_total", "page evictions by store file",
				func() float64 { return float64(st().CacheStats()[file].Evictions) },
				metrics.L("file", file))
			reg.CounterFunc("neograph_pagecache_flushes_total", "dirty page write-backs by store file",
				func() float64 { return float64(st().CacheStats()[file].Flushes) },
				metrics.L("file", file))
			for shard := range st().CacheShardStats()[file] {
				lbls := []metrics.Label{metrics.L("file", file), metrics.L("shard", strconv.Itoa(shard))}
				reg.CounterFunc("neograph_pagecache_shard_hits_total",
					"page-cache hits by LRU segment",
					func() float64 { return float64(st().CacheShardStats()[file][shard].Hits) }, lbls...)
				reg.CounterFunc("neograph_pagecache_shard_misses_total",
					"page-cache misses by LRU segment",
					func() float64 { return float64(st().CacheShardStats()[file][shard].Misses) }, lbls...)
			}
		}
	}

	// Replication: role, lag, and sync-quorum health. Sampled through
	// ReplStatus so promotion/demotion is reflected live.
	reg.GaugeFunc("neograph_repl_connected", "1 when a replica's stream is connected",
		func() float64 {
			if db.ReplStatus().Connected {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("neograph_repl_lag_bytes", "byte gap to the primary durability horizon",
		func() float64 {
			st := db.ReplStatus()
			if st.PrimaryDurable <= st.AppliedLSN {
				return 0
			}
			return float64(st.PrimaryDurable - st.AppliedLSN)
		})
	reg.GaugeFunc("neograph_repl_lag_seconds",
		"how long this replica has continuously been behind the primary",
		func() float64 { return db.ReplStatus().LagSeconds })
	reg.CounterFunc("neograph_repl_degraded_commits_total",
		"commits acknowledged without the sync quorum",
		func() float64 { return float64(db.ReplStatus().DegradedCommits) })
	reg.GaugeFunc("neograph_repl_replicas", "replicas connected to this primary",
		func() float64 { return float64(len(db.ReplStatus().Replicas)) })
	reg.GaugeFunc("neograph_repl_epoch", "replication generation (bumped by promotion)",
		func() float64 {
			epoch, _ := db.Epoch()
			return float64(epoch)
		})
}

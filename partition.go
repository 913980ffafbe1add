package neograph

import "neograph/internal/core"

// Partitioned deployments: the database participates in a hash-partitioned
// cluster where node and relationship IDs are strided by partition
// (id % PartitionCount == PartitionID) and cross-partition transactions
// commit through two-phase commit. The two-phase-commit participant and
// coordinator surface stays on the engine (Engine, Tx.Core), where only
// the server layer reaches it; what is public here is read-only
// diagnostics.

// PreparedInfo describes one in-doubt transaction (see InDoubt).
type PreparedInfo = core.PreparedInfo

// OwnsID reports whether this partition owns the given entity ID
// (id % PartitionCount == PartitionID; always true when unpartitioned).
func (db *DB) OwnsID(id uint64) bool { return db.eng().OwnsID(id) }

// PartitionID returns this database's partition number (0 when
// unpartitioned).
func (db *DB) PartitionID() uint32 { return uint32(db.opts.PartitionID) }

// PartitionCount returns the configured partition count (0 or 1 when
// unpartitioned).
func (db *DB) PartitionCount() int { return db.opts.PartitionCount }

// InDoubt lists transactions prepared on this node whose decision has
// not arrived — the resolver asks each one's coordinating partition.
func (db *DB) InDoubt() []PreparedInfo { return db.eng().InDoubt() }

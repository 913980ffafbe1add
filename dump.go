package neograph

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"neograph/internal/value"
	"neograph/internal/wire"
)

// Export writes a snapshot-consistent dump of the whole graph to w as
// newline-delimited JSON: one record per node, then one per relationship.
// Because it runs inside a single transaction, the dump is a consistent
// snapshot even while writers commit — the operational payoff of the
// paper's design (an online backup needs no quiescence).
//
// The format round-trips exactly through Import: entity IDs, labels and
// every property value bit for bit, because a property map is the bytes
// the WAL, the store and the wire carry (internal/value's binary
// encoding), base64 in the JSON record.
func Export(tx *Tx, w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)

	nodes, err := tx.AllNodes()
	if err != nil {
		return err
	}
	for _, id := range nodes {
		n, err := tx.GetNode(id)
		if err != nil {
			return err
		}
		rec := struct {
			Kind   string   `json:"kind"`
			ID     uint64   `json:"id"`
			Labels []string `json:"labels,omitempty"`
			Props  []byte   `json:"props,omitempty"`
		}{"node", n.ID, n.Labels, wire.Props(n.Props)}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}

	rels, err := tx.AllRels()
	if err != nil {
		return err
	}
	for _, id := range rels {
		r, err := tx.GetRel(id)
		if err != nil {
			return err
		}
		rec := struct {
			Kind  string `json:"kind"`
			ID    uint64 `json:"id"`
			Type  string `json:"type"`
			Start uint64 `json:"start"`
			End   uint64 `json:"end"`
			Props []byte `json:"props,omitempty"`
		}{"rel", r.ID, r.Type, r.Start, r.End, wire.Props(r.Props)}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ImportStats reports what Import created.
type ImportStats struct {
	Nodes int
	Rels  int
}

// Import reads a dump produced by Export into db. Entity IDs are NOT
// preserved — fresh IDs are allocated and relationships re-linked through
// the dump's ID mapping — so a dump can be imported into a non-empty
// database. Records are committed in batches.
func Import(db *DB, r io.Reader) (ImportStats, error) {
	type rawRec struct {
		Kind   string   `json:"kind"`
		ID     uint64   `json:"id"`
		Labels []string `json:"labels"`
		Type   string   `json:"type"`
		Start  uint64   `json:"start"`
		End    uint64   `json:"end"`
		Props  []byte   `json:"props"`
		props  Props    // Props read by value.ParseMap
	}
	var stats ImportStats
	idMap := make(map[uint64]NodeID)
	dec := json.NewDecoder(bufio.NewReader(r))

	const batchSize = 256
	var batch []rawRec
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		recs := batch
		batch = batch[:0]
		// The Update closure can re-run on a write conflict with outside
		// writers, so all bookkeeping is staged locally per attempt and
		// published only after the commit succeeds.
		var newIDs map[uint64]NodeID
		var nodes, rels int
		err := db.Update(10, func(tx *Tx) error {
			newIDs = make(map[uint64]NodeID)
			nodes, rels = 0, 0
			for _, rec := range recs {
				switch rec.Kind {
				case "node":
					id, err := tx.CreateNode(rec.Labels, rec.props)
					if err != nil {
						return err
					}
					newIDs[rec.ID] = id
					nodes++
				case "rel":
					start, ok := newIDs[rec.Start]
					if !ok {
						if start, ok = idMap[rec.Start]; !ok {
							return fmt.Errorf("neograph: import: rel %d references unknown node %d", rec.ID, rec.Start)
						}
					}
					end, ok := newIDs[rec.End]
					if !ok {
						if end, ok = idMap[rec.End]; !ok {
							return fmt.Errorf("neograph: import: rel %d references unknown node %d", rec.ID, rec.End)
						}
					}
					if _, err := tx.CreateRel(rec.Type, start, end, rec.props); err != nil {
						return err
					}
					rels++
				default:
					return fmt.Errorf("neograph: import: unknown record kind %q", rec.Kind)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		for orig, id := range newIDs {
			idMap[orig] = id
		}
		stats.Nodes += nodes
		stats.Rels += rels
		return nil
	}

	for {
		var rec rawRec
		err := dec.Decode(&rec)
		if err == io.EOF {
			break
		}
		if err == nil {
			rec.props, err = value.ParseMap(rec.Props)
		}
		if err != nil {
			return stats, fmt.Errorf("neograph: import: %w", err)
		}
		batch = append(batch, rec)
		if len(batch) >= batchSize {
			if err := flush(); err != nil {
				return stats, err
			}
		}
	}
	return stats, flush()
}

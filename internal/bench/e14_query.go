package bench

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"neograph"
	"neograph/client"
	"neograph/internal/fleet"
)

// E14Row is one mode's measurement.
type E14Row struct {
	// Mode is "client-looped" (one Neighbors RPC per frontier node),
	// "server-khop" (one query plan, streamed result) or "full-stream"
	// (an unfiltered all-nodes stream, the bounded-memory demonstration).
	Mode    string  `json:"mode"`
	Starts  int     `json:"starts"`
	Depth   int     `json:"depth"`
	Visited uint64  `json:"visited"`
	Rounds  uint64  `json:"round_trips"`
	Millis  float64 `json:"millis"`
	// Speedup is client-looped elapsed over this mode's elapsed.
	Speedup float64 `json:"speedup"`
}

// e14Depth is the traversal depth (hops).
const e14Depth = 3

var e14 = Experiment{"E14", "k-hop traversal: client-looped RPCs vs server-side plan with streamed result", tabled(runE14,
	fmt.Sprintf("server-khop >= 2x client-looped at depth %d (the client pays one round trip per frontier node, "+
		"the plan pays one per chunk); full-stream rows == graph size with chunk-bounded memory on both ends", e14Depth))}

// runE14 measures k-hop neighborhood traversal over real loopback TCP.
// The client-looped baseline is what an SDK without server-side plans
// forces: the traversal's frontier lives on the client, and every
// frontier node costs a round trip. The pushdown mode ships the whole
// traversal as ONE plan; the server walks one MVCC snapshot and streams
// rows back in chunk-sized frames. Both modes visit the identical node
// set — the speedup is pure round-trip and per-op dispatch amortisation,
// the paper's whole-operation-submission argument applied to traversals.
func runE14(p Params) ([]E14Row, error) {
	nodeCount, outDegree := pick(p, 120_000, 3_000), pick(p, 8, 6) // a random graph of nodeCount*outDegree edges
	nStarts := pick(p, 4, 2)                                       // k-hop traversals each mode runs
	ctx := context.Background()

	f, err := fleet.Start(fleet.Spec{})
	if err != nil {
		return nil, err
	}
	defer f.Close()
	db := f.Groups[0][0].DB

	// Load embedded: the wire path is what is being measured, not the
	// loader. Edges land in chunked transactions to keep any one commit's
	// write buffer modest.
	r := rand.New(rand.NewSource(p.Seed))
	nodes, err := createNodes(db, nodeCount, []string{"E14"}, nil)
	if err != nil {
		return nil, err
	}
	const edgeChunk = 100_000
	for done := 0; done < nodeCount*outDegree; done += edgeChunk {
		if err := db.Update(0, func(tx *neograph.Tx) error {
			for i := done; i < min(done+edgeChunk, nodeCount*outDegree); i++ {
				if _, err := tx.CreateRel("E", nodes[i/outDegree], nodes[r.Intn(nodeCount)], nil); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}

	c, err := client.Dial(ctx, f.Groups[0][0].Addr())
	if err != nil {
		return nil, err
	}
	defer c.Close()
	starts := make([]neograph.NodeID, nStarts)
	for i := range starts {
		starts[i] = nodes[r.Intn(nodeCount)]
	}
	// timed runs one mode's traversals three times and keeps the fastest:
	// a millisecond-scale measurement on a shared machine is otherwise at
	// the mercy of one GC cycle or scheduler hiccup.
	timed := func(row *E14Row, run func() error) error {
		for rep := 0; rep < 3; rep++ {
			row.Visited, row.Rounds = 0, 0
			t0 := time.Now()
			if err := run(); err != nil {
				return fmt.Errorf("e14 %s: %w", row.Mode, err)
			}
			if ms := float64(time.Since(t0).Microseconds()) / 1e3; rep == 0 || ms < row.Millis {
				row.Millis = ms
			}
		}
		return nil
	}

	// Mode 1: the client drives the BFS — one Neighbors RPC per frontier
	// node per hop.
	looped := E14Row{Mode: "client-looped", Starts: nStarts, Depth: e14Depth, Speedup: 1}
	err = timed(&looped, func() error {
		for _, start := range starts {
			visited := map[neograph.NodeID]bool{start: true}
			frontier := []neograph.NodeID{start}
			for d := 0; d < e14Depth && len(frontier) > 0; d++ {
				var next []neograph.NodeID
				for _, id := range frontier {
					nbrs, err := c.Neighbors(ctx, id, "out", "E")
					if err != nil {
						return err
					}
					looped.Rounds++
					for _, nb := range nbrs {
						if !visited[nb] {
							visited[nb] = true
							next = append(next, nb)
						}
					}
				}
				frontier = next
			}
			looped.Visited += uint64(len(visited))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// stream drains one query, counting its rows.
	stream := func(plan *client.Query, row *E14Row) error {
		st, err := c.Query(ctx, plan)
		if err != nil {
			return err
		}
		row.Rounds++
		for st.Next() {
			row.Visited++
		}
		return st.Err()
	}

	// Mode 2: the same traversals as ONE plan each, streamed back.
	pushdown := E14Row{Mode: "server-khop", Starts: nStarts, Depth: e14Depth}
	err = timed(&pushdown, func() error {
		for _, start := range starts {
			if err := stream(client.SeedIDs(start).KHop("out", e14Depth, "E"), &pushdown); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if pushdown.Millis > 0 {
		pushdown.Speedup = looped.Millis / pushdown.Millis
	}
	if pushdown.Visited != looped.Visited {
		return nil, fmt.Errorf("e14: server-khop visited %d nodes, client-looped %d — traversals disagree",
			pushdown.Visited, looped.Visited)
	}

	// Mode 3: stream every node unfiltered — the row count says the whole
	// graph crossed the wire, while both sides only ever held chunk-sized
	// buffers (wire.QueryChunkRows rows at a time).
	full := E14Row{Mode: "full-stream", Starts: 1}
	if err := timed(&full, func() error { return stream(client.SeedAll(), &full) }); err != nil {
		return nil, err
	}
	return []E14Row{looped, pushdown, full}, nil
}

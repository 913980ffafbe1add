package query

import (
	"errors"
	"reflect"
	"testing"

	"neograph"
	"neograph/internal/value"
	"neograph/internal/wire"
)

// collect drains a plan into rows via Run.
func collect(t *testing.T, tx *neograph.Tx, plan *wire.QueryPlan) []Row {
	t.Helper()
	var rows []Row
	if err := Run(tx, plan, func(r Row) error {
		rows = append(rows, r)
		return nil
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return rows
}

// TestQueryPipelineKHopMatchesBFS checks the streamed khop operator
// agrees with the embedded BFS — same visit set, order, and depths.
func TestQueryPipelineKHopMatchesBFS(t *testing.T) {
	db := openDB(t)
	// A small braided graph: chain with extra skip edges and a branch.
	ids := buildChain(t, db, 12)
	err := db.Update(0, func(tx *neograph.Tx) error {
		for i := 0; i+3 < len(ids); i += 3 {
			if _, err := tx.CreateRel("SKIP", ids[i], ids[i+3], nil); err != nil {
				return err
			}
		}
		branch, err := tx.CreateNode([]string{"B"}, nil)
		if err != nil {
			return err
		}
		_, err = tx.CreateRel("NEXT", ids[1], branch, nil)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	db.View(func(tx *neograph.Tx) error {
		for _, depth := range []int{1, 3, 64} {
			var want []Row
			if err := BFS(tx, ids[0], neograph.Both, depth, func(id neograph.NodeID, d int) bool {
				want = append(want, Row{ID: id, Depth: d})
				return true
			}); err != nil {
				t.Fatal(err)
			}
			got := collect(t, tx, &wire.QueryPlan{
				Seed:   wire.QuerySeed{IDs: []uint64{ids[0]}},
				Stages: []wire.QueryStage{{Op: wire.StageKHop, Dir: "both", Depth: depth}},
			})
			if !reflect.DeepEqual(got, want) {
				t.Errorf("depth %d: khop = %v, want %v", depth, got, want)
			}
		}
		return nil
	})
}

// TestQueryPipelineExpandFilterLimitCount exercises the composable
// operators end to end over label/property data.
func TestQueryPipelineExpandFilterLimitCount(t *testing.T) {
	db := openDB(t)
	ids := buildChain(t, db, 8) // each node has prop i = index, label N
	db.View(func(tx *neograph.Tx) error {
		// expand out from node 2: exactly node 3 at depth 1.
		rows := collect(t, tx, &wire.QueryPlan{
			Seed:   wire.QuerySeed{IDs: []uint64{ids[2]}},
			Stages: []wire.QueryStage{{Op: wire.StageExpand, Dir: "out"}},
		})
		if len(rows) != 1 || rows[0].ID != ids[3] || rows[0].Depth != 1 {
			t.Errorf("expand = %v", rows)
		}

		// all → filter i < 5 → count = 5.
		rows = collect(t, tx, &wire.QueryPlan{
			Seed: wire.QuerySeed{All: true},
			Stages: []wire.QueryStage{
				{Op: wire.StageFilterLt, Key: "i", Value: value.EncodeValue(neograph.Int(5))},
				{Op: wire.StageCount},
			},
		})
		if len(rows) != 1 || rows[0].Count != 5 {
			t.Errorf("count = %v, want one row of 5", rows)
		}

		// label seed → filter_eq i=3 → that one node.
		rows = collect(t, tx, &wire.QueryPlan{
			Seed: wire.QuerySeed{Label: "N"},
			Stages: []wire.QueryStage{
				{Op: wire.StageFilterEq, Key: "i", Value: value.EncodeValue(neograph.Int(3))},
			},
		})
		if len(rows) != 1 || rows[0].ID != ids[3] {
			t.Errorf("filter_eq = %v, want [%d]", rows, ids[3])
		}

		// property seed + limit.
		rows = collect(t, tx, &wire.QueryPlan{
			Seed:   wire.QuerySeed{Key: "i", Value: value.EncodeValue(neograph.Int(6))},
			Stages: []wire.QueryStage{{Op: wire.StageLimit, N: 3}},
		})
		if len(rows) != 1 || rows[0].ID != ids[6] {
			t.Errorf("property seed = %v, want [%d]", rows, ids[6])
		}

		// filter_lt with a non-numeric reference keeps nothing (ints and
		// strings are not ordered against each other).
		rows = collect(t, tx, &wire.QueryPlan{
			Seed: wire.QuerySeed{All: true},
			Stages: []wire.QueryStage{
				{Op: wire.StageFilterLt, Key: "i", Value: value.EncodeValue(neograph.String("zz"))},
				{Op: wire.StageCount},
			},
		})
		if len(rows) != 1 || rows[0].Count != 0 {
			t.Errorf("cross-kind filter_lt = %v, want count 0", rows)
		}
		return nil
	})
}

// TestQueryPipelineShortestPath checks the lazy shortest-path terminal
// emits the embedded ShortestPath result as ordered rows.
func TestQueryPipelineShortestPath(t *testing.T) {
	db := openDB(t)
	ids := buildChain(t, db, 6)
	db.View(func(tx *neograph.Tx) error {
		want, err := ShortestPath(tx, ids[0], ids[4], neograph.Outgoing)
		if err != nil {
			t.Fatal(err)
		}
		rows := collect(t, tx, &wire.QueryPlan{
			Seed:   wire.QuerySeed{IDs: []uint64{ids[0]}},
			Stages: []wire.QueryStage{{Op: wire.StageShortestPath, End: ids[4], Dir: "out"}},
		})
		if len(rows) != len(want.Nodes) {
			t.Fatalf("path rows = %d, want %d", len(rows), len(want.Nodes))
		}
		for i, r := range rows {
			if r.ID != want.Nodes[i] || r.Depth != i {
				t.Errorf("row %d = %+v, want node %d depth %d", i, r, want.Nodes[i], i)
			}
			if i > 0 && r.Rel != want.Rels[i-1] {
				t.Errorf("row %d rel = %d, want %d", i, r.Rel, want.Rels[i-1])
			}
		}

		// No path in the other direction: the error streams out.
		err = Run(tx, &wire.QueryPlan{
			Seed:   wire.QuerySeed{IDs: []uint64{ids[0]}},
			Stages: []wire.QueryStage{{Op: wire.StageShortestPath, End: ids[4], Dir: "in"}},
		}, func(Row) error { return nil })
		if !errors.Is(err, ErrNoPath) {
			t.Errorf("reverse path err = %v, want ErrNoPath", err)
		}
		return nil
	})
}

// TestQueryPipelinePageRank checks the pagerank terminal matches the
// embedded PageRank + TopK.
func TestQueryPipelinePageRank(t *testing.T) {
	db := openDB(t)
	buildChain(t, db, 10)
	db.View(func(tx *neograph.Tx) error {
		ranks, err := PageRank(tx, PageRankConfig{})
		if err != nil {
			t.Fatal(err)
		}
		want := TopK(ranks, 3)
		rows := collect(t, tx, &wire.QueryPlan{
			Seed:   wire.QuerySeed{All: true},
			Stages: []wire.QueryStage{{Op: wire.StagePageRank, N: 3}},
		})
		if len(rows) != len(want) {
			t.Fatalf("pagerank rows = %d, want %d", len(rows), len(want))
		}
		for i, r := range rows {
			if r.ID != want[i].Node || r.Score != want[i].Score {
				t.Errorf("rank %d = %+v, want %+v", i, r, want[i])
			}
		}
		return nil
	})
}

// TestQueryPipelineSeedErrors checks a missing explicit seed surfaces
// ErrNotFound and an invalid plan fails at compile.
func TestQueryPipelineSeedErrors(t *testing.T) {
	db := openDB(t)
	buildChain(t, db, 2)
	db.View(func(tx *neograph.Tx) error {
		err := Run(tx, &wire.QueryPlan{Seed: wire.QuerySeed{IDs: []uint64{99999}}},
			func(Row) error { return nil })
		if !errors.Is(err, neograph.ErrNotFound) {
			t.Errorf("missing seed err = %v, want ErrNotFound", err)
		}
		if _, err := Compile(tx, &wire.QueryPlan{}); err == nil {
			t.Error("empty plan compiled")
		}
		return nil
	})
}

// TestQueryPipelineSeesTxWrites checks plans run over the session
// transaction's own uncommitted writes (the snapshot+tx-buffer merged
// iterator at work).
func TestQueryPipelineSeesTxWrites(t *testing.T) {
	db := openDB(t)
	err := db.Update(0, func(tx *neograph.Tx) error {
		a, err := tx.CreateNode([]string{"Fresh"}, nil)
		if err != nil {
			return err
		}
		b, err := tx.CreateNode([]string{"Fresh"}, nil)
		if err != nil {
			return err
		}
		if _, err := tx.CreateRel("R", a, b, nil); err != nil {
			return err
		}
		rows := collect(t, tx, &wire.QueryPlan{
			Seed:   wire.QuerySeed{Label: "Fresh"},
			Stages: []wire.QueryStage{{Op: wire.StageKHop, Dir: "out", Depth: 1}},
		})
		// Seeds a and b at depth 0; b is not re-emitted when reached from a.
		if len(rows) != 2 || rows[0].ID != a || rows[1].ID != b {
			return errors.New("uncommitted writes not visible to pipeline")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

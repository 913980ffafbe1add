package wire

import (
	"fmt"

	"neograph/internal/core"
)

// OpQuery submits a QueryPlan for whole-query, engine-side execution —
// the paper's §1 argument taken to the wire: a multi-hop traversal is
// ONE request, evaluated against ONE MVCC snapshot, instead of a round
// trip per hop. The response is a STREAM of frames: zero or more chunk
// frames (OK with More set, each carrying up to a chunk of rows) followed
// by exactly one final frame (More unset — possibly with trailing rows —
// or an error frame). Every frame echoes the request's Seq and TraceID,
// so pipelined clients can pair each chunk with its request.
const OpQuery = "query"

// Structural bounds on a query plan. They are validated before any
// execution so a hostile plan is a cheap error frame, not a runaway
// traversal.
const (
	// MaxQuerySeedIDs bounds an explicit seed set (mirrors MaxBatchOps:
	// larger seed sets should arrive as several queries).
	MaxQuerySeedIDs = 4096
	// MaxQueryStages bounds the operator pipeline's length.
	MaxQueryStages = 16
	// MaxQueryDepth bounds k-hop expansion depth.
	MaxQueryDepth = 64
	// MaxPageRankIters bounds PageRank power iterations.
	MaxPageRankIters = 200
)

// QueryChunkRows is the server's streaming chunk size: at most this many
// rows buffer server-side before a frame is flushed, which is what keeps
// a million-row result at chunk-sized memory on both ends.
const QueryChunkRows = 512

// Stage operators. A plan is seed → stages, evaluated left to right as a
// streaming pipeline; StageShortestPath and StagePageRank are whole-plan
// algorithms and must be a plan's only stage, StageCount and StageLimit
// are terminal-ish reducers (count must come last).
const (
	// StageExpand replaces the row set with its one-hop neighborhood
	// (deduplicated; Dir/Types filter the followed relationships).
	StageExpand = "expand"
	// StageKHop streams the breadth-first k-hop neighborhood of the seed
	// rows — every node within Depth hops, each once, with its depth.
	StageKHop = "khop"
	// StageShortestPath emits the nodes of a minimum-hop path from the
	// single seed node to End, in order, each row carrying the
	// relationship that led to it.
	StageShortestPath = "shortest_path"
	// StagePageRank ranks the whole visible graph and emits the top N
	// rows (0 = all) with their scores.
	StagePageRank = "pagerank"
	// StageFilterLabel keeps rows whose node carries Label.
	StageFilterLabel = "filter_label"
	// StageFilterEq keeps rows whose node property Key equals Value.
	StageFilterEq = "filter_eq"
	// StageFilterLt keeps rows whose node property Key is strictly less
	// than Value (the value model's total order).
	StageFilterLt = "filter_lt"
	// StageLimit stops the stream after N rows.
	StageLimit = "limit"
	// StageCount consumes the stream and emits one row whose Count is
	// the number of rows that reached it.
	StageCount = "count"
)

// QueryPlan is the wire form of a server-side query: a seed set and a
// pipeline of stages. The server executes the whole plan inside one
// transaction (the session's open one, or a read transaction owned by
// the query), so every stage sees the same snapshot.
type QueryPlan struct {
	Seed   QuerySeed    `json:"seed"`
	Stages []QueryStage `json:"stages,omitempty"`
}

// QuerySeed selects the starting row set. Exactly one selector must be
// set: explicit IDs, a label, a property equality (Key+Value), or All.
type QuerySeed struct {
	IDs   []uint64 `json:"ids,omitempty"`
	Label string   `json:"label,omitempty"`
	Key   string   `json:"key,omitempty"`
	Value []byte   `json:"value,omitempty"` // value.AppendValue bytes
	All   bool     `json:"all,omitempty"`
}

// QueryStage is one pipeline operator; Op selects which fields apply.
type QueryStage struct {
	Op         string   `json:"op"`
	Dir        string   `json:"dir,omitempty"`        // expand/khop/shortest_path
	Types      []string `json:"types,omitempty"`      // expand/khop/shortest_path
	Depth      int      `json:"depth,omitempty"`      // khop
	Key        string   `json:"key,omitempty"`        // filter_eq/filter_lt
	Value      []byte   `json:"value,omitempty"`      // filter_eq/filter_lt (value.AppendValue bytes)
	Label      string   `json:"label,omitempty"`      // filter_label
	N          int      `json:"n,omitempty"`          // limit / pagerank top-N
	End        uint64   `json:"end,omitempty"`        // shortest_path target
	Damping    float64  `json:"damping,omitempty"`    // pagerank
	Iterations int      `json:"iterations,omitempty"` // pagerank
}

// QueryRow is one streamed result row. Which fields are meaningful
// depends on the plan's last stage: traversals fill Depth, shortest-path
// rows carry the relationship that reached the node, PageRank fills
// Score, count fills only Count.
type QueryRow struct {
	ID    uint64  `json:"id,omitempty"`
	Depth int     `json:"depth,omitempty"`
	Rel   uint64  `json:"rel,omitempty"`
	Score float64 `json:"score,omitempty"`
	Count uint64  `json:"count,omitempty"`
}

// ParseDir maps a wire direction ("out", "in", "both"; "" means both) to
// the engine's — the one place the direction vocabulary is spelled.
func ParseDir(d string) (core.Direction, error) {
	switch d {
	case "out":
		return core.Outgoing, nil
	case "in":
		return core.Incoming, nil
	case "", "both":
		return core.Both, nil
	}
	return 0, fmt.Errorf("wire: bad direction %q", d)
}

// ValidateQueryPlan checks a plan's structural rules before execution:
// exactly one seed selector, bounded sizes/depths, per-stage field
// requirements, and placement rules (whole-plan algorithms stand alone,
// count comes last). Execution-time concerns — missing nodes, type
// mismatches in filters — are deliberately not validated here.
func ValidateQueryPlan(p *QueryPlan) error {
	if p == nil {
		return fmt.Errorf("wire: query without a plan")
	}
	selectors := 0
	if len(p.Seed.IDs) > 0 {
		selectors++
		if len(p.Seed.IDs) > MaxQuerySeedIDs {
			return fmt.Errorf("wire: seed of %d ids exceeds limit %d", len(p.Seed.IDs), MaxQuerySeedIDs)
		}
	}
	if p.Seed.Label != "" {
		selectors++
	}
	if p.Seed.Key != "" {
		selectors++
		if len(p.Seed.Value) == 0 {
			return fmt.Errorf("wire: property seed needs a value")
		}
	}
	if p.Seed.All {
		selectors++
	}
	if selectors != 1 {
		return fmt.Errorf("wire: seed must set exactly one of ids/label/key/all, got %d", selectors)
	}
	if len(p.Stages) > MaxQueryStages {
		return fmt.Errorf("wire: plan of %d stages exceeds limit %d", len(p.Stages), MaxQueryStages)
	}
	for i := range p.Stages {
		st := &p.Stages[i]
		last := i == len(p.Stages)-1
		switch st.Op {
		case StageExpand:
			if _, err := ParseDir(st.Dir); err != nil {
				return fmt.Errorf("wire: stage %d: bad direction %q", i, st.Dir)
			}
		case StageKHop:
			if _, err := ParseDir(st.Dir); err != nil {
				return fmt.Errorf("wire: stage %d: bad direction %q", i, st.Dir)
			}
			if st.Depth < 1 || st.Depth > MaxQueryDepth {
				return fmt.Errorf("wire: stage %d: khop depth %d outside [1,%d]", i, st.Depth, MaxQueryDepth)
			}
		case StageShortestPath:
			if len(p.Stages) != 1 {
				return fmt.Errorf("wire: stage %d: shortest_path must be the plan's only stage", i)
			}
			if len(p.Seed.IDs) != 1 {
				return fmt.Errorf("wire: shortest_path needs exactly one seed id")
			}
			if _, err := ParseDir(st.Dir); err != nil {
				return fmt.Errorf("wire: stage %d: bad direction %q", i, st.Dir)
			}
		case StagePageRank:
			if len(p.Stages) != 1 {
				return fmt.Errorf("wire: stage %d: pagerank must be the plan's only stage", i)
			}
			if st.Damping != 0 && (st.Damping <= 0 || st.Damping >= 1) {
				return fmt.Errorf("wire: stage %d: damping %v outside (0,1)", i, st.Damping)
			}
			if st.Iterations < 0 || st.Iterations > MaxPageRankIters {
				return fmt.Errorf("wire: stage %d: iterations %d outside [0,%d]", i, st.Iterations, MaxPageRankIters)
			}
			if st.N < 0 {
				return fmt.Errorf("wire: stage %d: negative top-n", i)
			}
		case StageFilterLabel:
			if st.Label == "" {
				return fmt.Errorf("wire: stage %d: filter_label needs a label", i)
			}
		case StageFilterEq, StageFilterLt:
			if st.Key == "" || len(st.Value) == 0 {
				return fmt.Errorf("wire: stage %d: %s needs key and value", i, st.Op)
			}
		case StageLimit:
			if st.N < 1 {
				return fmt.Errorf("wire: stage %d: limit %d must be positive", i, st.N)
			}
		case StageCount:
			if !last {
				return fmt.Errorf("wire: stage %d: count must be the last stage", i)
			}
		default:
			return fmt.Errorf("wire: stage %d: unknown op %q", i, st.Op)
		}
	}
	return nil
}

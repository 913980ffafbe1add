package query

import (
	"errors"
	"fmt"
	"sort"

	"neograph"
	"neograph/internal/value"
	"neograph/internal/wire"
)

// This file is the operator-pipeline form of the package: the same
// traversals as the embedded API, refactored into small composable
// operators (seed → expand / filter / limit / count) that PULL rows one
// at a time from their upstream. A compiled pipeline runs against a
// single transaction, so — like every algorithm here — the whole plan
// sees one MVCC snapshot; and because rows stream through the operators
// instead of materialising between stages, the server can ship a
// million-row result in chunk-sized memory. Label and full scans seed
// from the engine's NodeIterator, the snapshot+tx-buffer merged iterator
// (read-your-own-writes included).

// Row is one pipeline result row. Which fields are meaningful depends on
// the plan's last stage: traversals fill Depth, shortest-path rows carry
// the relationship that reached the node, PageRank fills Score, count
// fills only Count.
type Row struct {
	ID    neograph.NodeID
	Depth int
	Rel   neograph.RelID
	Score float64
	Count uint64
}

// WireRow converts a row to its wire form.
func (r Row) WireRow() wire.QueryRow {
	return wire.QueryRow{ID: r.ID, Depth: r.Depth, Rel: r.Rel, Score: r.Score, Count: r.Count}
}

// Emit receives pipeline rows one at a time. Returning an error stops
// execution and propagates out of Run.
type Emit func(Row) error

// rowIter is the internal pull contract every operator implements:
// next returns the next row, false at exhaustion, or an error.
type rowIter interface {
	next() (Row, bool, error)
}

// Pipeline is a compiled plan: a pull-based row stream over one
// transaction's snapshot.
type Pipeline struct {
	it rowIter
}

// Next returns the next result row, false when the stream is exhausted.
func (p *Pipeline) Next() (Row, bool, error) { return p.it.next() }

// Run compiles plan and streams every result row to emit.
func Run(tx *neograph.Tx, plan *wire.QueryPlan, emit Emit) error {
	p, err := Compile(tx, plan)
	if err != nil {
		return err
	}
	for {
		row, ok, err := p.Next()
		if err != nil || !ok {
			return err
		}
		if err := emit(row); err != nil {
			return err
		}
	}
}

// Compile validates plan and builds its operator pipeline over tx. The
// returned Pipeline borrows tx and must be drained before tx ends.
func Compile(tx *neograph.Tx, plan *wire.QueryPlan) (*Pipeline, error) {
	if err := wire.ValidateQueryPlan(plan); err != nil {
		return nil, err
	}
	it, err := compileSeed(tx, &plan.Seed)
	if err != nil {
		return nil, err
	}
	for i := range plan.Stages {
		st := &plan.Stages[i]
		if it, err = compileStage(tx, plan, st, it); err != nil {
			return nil, err
		}
	}
	return &Pipeline{it: it}, nil
}

// compileSeed builds the seed operator. Explicit IDs stream with an
// existence check; label and full scans stream through the engine's
// merged snapshot+tx-buffer NodeIterator; property seeds resolve through
// the versioned property index.
func compileSeed(tx *neograph.Tx, seed *wire.QuerySeed) (rowIter, error) {
	switch {
	case len(seed.IDs) > 0:
		return &idSeed{tx: tx, ids: seed.IDs}, nil
	case seed.Label != "":
		ids, err := tx.NodesByLabel(seed.Label)
		if err != nil {
			return nil, err
		}
		return &scanSeed{tx: tx, ids: ids}, nil
	case seed.Key != "":
		v, err := value.ParseValue(seed.Value)
		if err != nil {
			return nil, err
		}
		ids, err := tx.NodesByProperty(seed.Key, v)
		if err != nil {
			return nil, err
		}
		return &idList{ids: ids}, nil
	default: // All — guaranteed by validation
		ids, err := tx.AllNodes()
		if err != nil {
			return nil, err
		}
		return &scanSeed{tx: tx, ids: ids}, nil
	}
}

// compileStage wraps one operator around its upstream.
func compileStage(tx *neograph.Tx, plan *wire.QueryPlan, st *wire.QueryStage, in rowIter) (rowIter, error) {
	switch st.Op {
	case wire.StageExpand:
		dir, err := wire.ParseDir(st.Dir)
		if err != nil {
			return nil, err
		}
		return &expandIter{tx: tx, in: in, dir: dir, types: st.Types}, nil
	case wire.StageKHop:
		dir, err := wire.ParseDir(st.Dir)
		if err != nil {
			return nil, err
		}
		return &khopIter{tx: tx, in: in, dir: dir, types: st.Types, depth: st.Depth}, nil
	case wire.StageShortestPath:
		dir, err := wire.ParseDir(st.Dir)
		if err != nil {
			return nil, err
		}
		start, end := plan.Seed.IDs[0], st.End
		types := st.Types
		return &lazyIter{gen: func() ([]Row, error) {
			path, err := ShortestPath(tx, start, end, dir, types...)
			if err != nil {
				return nil, err
			}
			rows := make([]Row, len(path.Nodes))
			for i, n := range path.Nodes {
				rows[i] = Row{ID: n, Depth: i}
				if i > 0 {
					rows[i].Rel = path.Rels[i-1]
				}
			}
			return rows, nil
		}}, nil
	case wire.StagePageRank:
		cfg := PageRankConfig{Damping: st.Damping, MaxIterations: st.Iterations, RelTypes: st.Types}
		topN := st.N
		return &lazyIter{gen: func() ([]Row, error) {
			ranks, err := PageRank(tx, cfg)
			if err != nil {
				return nil, err
			}
			if topN > 0 {
				ranks = TopK(ranks, topN)
			}
			rows := make([]Row, len(ranks))
			for i, r := range ranks {
				rows[i] = Row{ID: r.Node, Score: r.Score}
			}
			return rows, nil
		}}, nil
	case wire.StageFilterLabel:
		label := st.Label
		return &filterIter{in: in, keep: func(id neograph.NodeID) (bool, error) {
			return tx.HasLabel(id, label)
		}}, nil
	case wire.StageFilterEq, wire.StageFilterLt:
		ref, err := value.ParseValue(st.Value)
		if err != nil {
			return nil, err
		}
		key, lt := st.Key, st.Op == wire.StageFilterLt
		return &filterIter{in: in, keep: func(id neograph.NodeID) (bool, error) {
			v, ok, err := tx.NodeProp(id, key)
			if err != nil {
				if errors.Is(err, neograph.ErrNotFound) {
					return false, nil
				}
				return false, err
			}
			if !ok {
				return false, nil
			}
			if lt {
				return lessThan(v, ref), nil
			}
			return v.Equal(ref), nil
		}}, nil
	case wire.StageLimit:
		return &limitIter{in: in, n: st.N}, nil
	case wire.StageCount:
		return &countIter{in: in}, nil
	default:
		return nil, fmt.Errorf("query: unknown stage %q", st.Op)
	}
}

// lessThan orders two property values for filter_lt: numerics compare
// numerically across int/float; otherwise only same-kind values are
// comparable (a string is never "less than" an int — such rows filter
// out rather than order arbitrarily by kind).
func lessThan(a, b neograph.Value) bool {
	if fa, ok := a.Numeric(); ok {
		if fb, ok := b.Numeric(); ok {
			return fa < fb
		}
	}
	if a.Kind() != b.Kind() {
		return false
	}
	return a.Compare(b) < 0
}

// idSeed yields explicit seed nodes, verifying each exists in the
// snapshot (same contract as BFS's start check).
type idSeed struct {
	tx  *neograph.Tx
	ids []uint64
	pos int
}

func (s *idSeed) next() (Row, bool, error) {
	if s.pos >= len(s.ids) {
		return Row{}, false, nil
	}
	id := s.ids[s.pos]
	s.pos++
	if ok, err := s.tx.NodeExists(id); err != nil {
		return Row{}, false, err
	} else if !ok {
		return Row{}, false, fmt.Errorf("%w: seed node %d", neograph.ErrNotFound, id)
	}
	return Row{ID: id}, true, nil
}

// idList yields a pre-resolved ID list (property-index seeds).
type idList struct {
	ids []uint64
	pos int
}

func (s *idList) next() (Row, bool, error) {
	if s.pos >= len(s.ids) {
		return Row{}, false, nil
	}
	id := s.ids[s.pos]
	s.pos++
	return Row{ID: id}, true, nil
}

// scanSeed streams a label or full scan's ID list with a per-row
// visibility recheck. The listing already merges the snapshot with this
// transaction's write buffer; NodeExists (no snapshot materialization —
// the props map is never cloned) drops nodes this transaction deleted
// after the listing, mirroring NodeIterator's skip semantics at a
// fraction of its cost.
type scanSeed struct {
	tx  *neograph.Tx
	ids []neograph.NodeID
	pos int
}

func (s *scanSeed) next() (Row, bool, error) {
	for s.pos < len(s.ids) {
		id := s.ids[s.pos]
		s.pos++
		ok, err := s.tx.NodeExists(id)
		if err != nil {
			return Row{}, false, err
		}
		if ok {
			return Row{ID: id}, true, nil
		}
	}
	return Row{}, false, nil
}

// expand collects node's neighbors into scratch (reused across calls —
// ForEachNeighbor allocates nothing per relationship) and returns it
// sorted, so expansion order matches Neighbors' sorted contract (and
// through it the embedded BFS) without paying Neighbors' per-call set
// and result slice. Duplicates from parallel edges survive in scratch;
// the caller's seen check drops them.
func expand(tx *neograph.Tx, node neograph.NodeID, dir neograph.Direction, types []string, scratch []neograph.NodeID) ([]neograph.NodeID, error) {
	scratch = scratch[:0]
	err := tx.ForEachNeighbor(node, dir, func(n neograph.NodeID) {
		scratch = append(scratch, n)
	}, types...)
	if err != nil {
		return scratch, err
	}
	sortIDs(scratch)
	return scratch, nil
}

// sortIDs sorts a neighborhood in place. Frontiers are degree-sized, so
// insertion sort beats sort.Slice's reflection overhead by a wide margin
// on the traversal hot path; fall back to sort.Slice for heavy hubs.
func sortIDs(s []neograph.NodeID) {
	if len(s) > 64 {
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		return
	}
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j] > v {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}

// idSet is a visited set over allocator-dense node IDs: a growable bool
// slice beats a hash map by an order of magnitude on the traversal hot
// path (no hashing, no rehash-on-grow). Memory is bounded by the largest
// ID ever marked, which the allocator keeps proportional to the number
// of nodes ever created.
type idSet struct{ b []bool }

// visit marks id and reports whether it was already present.
func (s *idSet) visit(id neograph.NodeID) bool {
	if id >= neograph.NodeID(len(s.b)) {
		nb := make([]bool, id+1+1024)
		copy(nb, s.b)
		s.b = nb
	}
	if s.b[id] {
		return true
	}
	s.b[id] = true
	return false
}

// expandIter replaces the stream with its one-hop neighborhood, each
// neighbor emitted once across the whole stage.
type expandIter struct {
	tx      *neograph.Tx
	in      rowIter
	dir     neograph.Direction
	types   []string
	seen    idSet
	buf     []Row
	head    int
	scratch []neograph.NodeID
}

func (e *expandIter) next() (Row, bool, error) {
	for {
		if e.head < len(e.buf) {
			r := e.buf[e.head]
			e.head++
			if e.head == len(e.buf) {
				e.buf, e.head = e.buf[:0], 0
			}
			return r, true, nil
		}
		in, ok, err := e.in.next()
		if err != nil || !ok {
			return Row{}, false, err
		}
		if e.scratch, err = expand(e.tx, in.ID, e.dir, e.types, e.scratch); err != nil {
			return Row{}, false, err
		}
		for _, n := range e.scratch {
			if !e.seen.visit(n) {
				e.buf = append(e.buf, Row{ID: n, Depth: in.Depth + 1})
			}
		}
	}
}

// khopIter streams the breadth-first k-hop neighborhood of the upstream
// rows: every node within depth hops, visited once, emitted with its
// discovery depth (seeds at 0). The traversal is incremental — each next
// pops one node and expands its frontier — so memory is the seen set
// plus the frontier, never the full result. Same algorithm, order and
// depths as the embedded BFS.
type khopIter struct {
	tx      *neograph.Tx
	in      rowIter
	dir     neograph.Direction
	types   []string
	depth   int
	seen    idSet
	queue   []Row // FIFO window is queue[head:]
	head    int
	scratch []neograph.NodeID
	seeded  bool
}

func (k *khopIter) next() (Row, bool, error) {
	if !k.seeded {
		k.seeded = true
		for {
			in, ok, err := k.in.next()
			if err != nil {
				return Row{}, false, err
			}
			if !ok {
				break
			}
			if !k.seen.visit(in.ID) {
				k.queue = append(k.queue, Row{ID: in.ID, Depth: 0})
			}
		}
	}
	if k.head == len(k.queue) {
		return Row{}, false, nil
	}
	cur := k.queue[k.head]
	k.head++
	// Compact once the dead prefix dominates, so appends extend a slice
	// whose length tracks the live frontier instead of every row ever
	// queued (popping with queue = queue[1:] makes append reallocate and
	// copy the window over and over — the traversal's hottest path).
	if k.head > 1024 && k.head*2 > len(k.queue) {
		n := copy(k.queue, k.queue[k.head:])
		k.queue, k.head = k.queue[:n], 0
	}
	if cur.Depth < k.depth {
		var err error
		if k.scratch, err = expand(k.tx, cur.ID, k.dir, k.types, k.scratch); err != nil {
			return Row{}, false, err
		}
		for _, n := range k.scratch {
			if !k.seen.visit(n) {
				k.queue = append(k.queue, Row{ID: n, Depth: cur.Depth + 1})
			}
		}
	}
	return cur, true, nil
}

// filterIter keeps rows the predicate accepts.
type filterIter struct {
	in   rowIter
	keep func(neograph.NodeID) (bool, error)
}

func (f *filterIter) next() (Row, bool, error) {
	for {
		r, ok, err := f.in.next()
		if err != nil || !ok {
			return Row{}, false, err
		}
		keep, err := f.keep(r.ID)
		if err != nil {
			return Row{}, false, err
		}
		if keep {
			return r, true, nil
		}
	}
}

// limitIter stops the stream after n rows without draining upstream.
type limitIter struct {
	in rowIter
	n  int
}

func (l *limitIter) next() (Row, bool, error) {
	if l.n <= 0 {
		return Row{}, false, nil
	}
	r, ok, err := l.in.next()
	if ok {
		l.n--
	}
	return r, ok, err
}

// countIter drains upstream and emits a single count row.
type countIter struct {
	in   rowIter
	done bool
}

func (c *countIter) next() (Row, bool, error) {
	if c.done {
		return Row{}, false, nil
	}
	c.done = true
	var n uint64
	for {
		_, ok, err := c.in.next()
		if err != nil {
			return Row{}, false, err
		}
		if !ok {
			return Row{Count: n}, true, nil
		}
		n++
	}
}

// lazyIter defers a whole-plan algorithm (shortest path, PageRank) to
// the first pull, then streams its materialised rows. The deferral
// matters server-side: compile errors are cheap frames, execution errors
// surface through the stream like any operator's.
type lazyIter struct {
	gen  func() ([]Row, error)
	rows []Row
	pos  int
	ran  bool
}

func (l *lazyIter) next() (Row, bool, error) {
	if !l.ran {
		l.ran = true
		rows, err := l.gen()
		if err != nil {
			return Row{}, false, err
		}
		l.rows = rows
	}
	if l.pos >= len(l.rows) {
		return Row{}, false, nil
	}
	r := l.rows[l.pos]
	l.pos++
	return r, true, nil
}

package client_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"

	"neograph"
	. "neograph/client"
	"neograph/internal/server"
)

// frameRecorder keeps every request frame a client writes.
type frameRecorder struct {
	net.Conn
	mu   sync.Mutex
	buf  []byte
	reqs []string // each frame as shape() renders it
}

func (r *frameRecorder) Write(p []byte) (int, error) {
	r.mu.Lock()
	r.buf = append(r.buf, p...)
	for {
		i := bytes.IndexByte(r.buf, '\n')
		if i < 0 {
			break
		}
		r.reqs = append(r.reqs, shape(r.buf[:i]))
		r.buf = r.buf[i+1:]
	}
	r.mu.Unlock()
	return r.Conn.Write(p)
}

// shape renders a request frame as its op, a batch as [its sub-ops].
func shape(frame []byte) string {
	var req struct {
		Op    string `json:"op"`
		Iso   string `json:"iso"`
		Batch []struct {
			Op  string `json:"op"`
			Iso string `json:"iso"`
		} `json:"batch"`
	}
	if err := json.Unmarshal(frame, &req); err != nil {
		return "unreadable: " + string(frame)
	}
	if req.Op != "batch" {
		return req.Op
	}
	subs := make([]string, len(req.Batch))
	for i, s := range req.Batch {
		subs[i] = s.Op
		if s.Iso != "" {
			subs[i] += " " + s.Iso
		}
	}
	return "[" + strings.Join(subs, ",") + "]"
}

// take returns the frames recorded since the last take.
func (r *frameRecorder) take() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.reqs
	r.reqs = nil
	return out
}

// dialRecorded opens a session to srv whose request frames are recorded.
func dialRecorded(t *testing.T, srv *server.Server) (*Client, *frameRecorder) {
	t.Helper()
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	rec := &frameRecorder{Conn: raw}
	cl := NewConn(rec)
	t.Cleanup(func() { cl.Close() })
	return cl, rec
}

// TestTransferRoundTrips pins what the write-behind transaction is for: the
// benchmark's transfer — begin, two reads, two balance writes, every fourth
// time a relationship, a ledger write, commit — is 3 request frames (4 with
// the relationship), 3.25 on average where one frame per call made it 7.25;
// a transaction whose every call was deferred is 1, and one with nothing
// in it is none.
func TestTransferRoundTrips(t *testing.T) {
	_, srv, _ := startServer(t)
	cl, rec := dialRecorded(t, srv)
	ctx := context.Background()
	var ids [3]neograph.NodeID
	for i := range ids {
		var err error
		if ids[i], err = cl.CreateNode(ctx, nil, neograph.Props{"balance": neograph.Int(100)}); err != nil {
			t.Fatal(err)
		}
	}
	from, to, ledger := ids[0], ids[1], ids[2]
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	transfer := func(withRel bool) {
		t.Helper()
		must(cl.Begin(ctx, ""))
		a, err := cl.GetNode(ctx, from)
		must(err)
		b, err := cl.GetNode(ctx, to)
		must(err)
		ab, _ := a.Props["balance"].AsInt()
		bb, _ := b.Props["balance"].AsInt()
		must(cl.SetNodeProp(ctx, from, "balance", neograph.Int(ab-5)))
		must(cl.SetNodeProp(ctx, to, "balance", neograph.Int(bb+5)))
		if withRel {
			_, err := cl.CreateRel(ctx, "TRANSFERRED", from, to, neograph.Props{"amount": neograph.Int(5)})
			must(err)
		}
		must(cl.SetNodeProp(ctx, ledger, "seq", neograph.Int(1)))
		must(cl.Commit(ctx))
	}
	want := func(what string, frames ...string) {
		t.Helper()
		if got := rec.take(); !reflect.DeepEqual(got, frames) {
			t.Errorf("%s: %d request frames %v, want %d %v", what, len(got), got, len(frames), frames)
		}
	}
	rec.take()

	total := 0
	for i := 0; i < 4; i++ {
		transfer(i == 3)
		total += len(rec.reqs)
		if i < 3 {
			want("transfer", "[begin,get_node]", "get_node", "[set_node_prop,set_node_prop,set_node_prop,commit]")
		} else {
			want("transfer with a relationship", "[begin,get_node]", "get_node",
				"[set_node_prop,set_node_prop,create_rel]", "[set_node_prop,commit]")
		}
	}
	if total != 13 {
		t.Errorf("four transfers, one with a relationship: %d request frames, want 13 (3.25 each)", total)
	}

	must(cl.Begin(ctx, ""))
	must(cl.SetNodeProp(ctx, from, "balance", neograph.Int(1)))
	must(cl.AddLabel(ctx, from, "Paid"))
	must(cl.Commit(ctx))
	want("every call deferred", "[begin,set_node_prop,add_label,commit]")
	must(cl.Begin(ctx, "rc"))
	must(cl.SetNodeProp(ctx, from, "balance", neograph.Int(2)))
	must(cl.Commit(ctx))
	want("every call deferred, read committed", "[begin rc,set_node_prop,commit]")
	must(cl.Begin(ctx, ""))
	must(cl.Commit(ctx))
	must(cl.Begin(ctx, "rc"))
	must(cl.Commit(ctx))
	want("begin and commit alone")

	n, err := cl.GetNode(ctx, from)
	must(err)
	if n.Props["balance"] != neograph.Int(2) || len(n.Labels) != 1 {
		t.Errorf("after the transactions: %v %v", n.Labels, n.Props)
	}
	rels, err := cl.Relationships(ctx, from, "out")
	must(err)
	if len(rels) != 1 {
		t.Errorf("%d TRANSFERRED relationships, want 1", len(rels))
	}
}

// TestOlderServerRefusedClientSide: against a server that said it speaks
// generation 2, a transaction's first frame is refused here, by name, and not
// sent to be refused there as "op begin not allowed in a batch".
func TestOlderServerRefusedClientSide(t *testing.T) {
	near, far := net.Pipe()
	defer far.Close()
	go func() { // a generation-2 server that says yes to everything it is sent
		dec, enc := json.NewDecoder(far), json.NewEncoder(far)
		for {
			var req struct {
				Seq   uint64            `json:"seq"`
				Batch []json.RawMessage `json:"batch"`
			}
			if dec.Decode(&req) != nil {
				return
			}
			results := make([]map[string]bool, len(req.Batch))
			for i := range results {
				results[i] = map[string]bool{"ok": true}
			}
			enc.Encode(map[string]any{"ok": true, "proto": 2, "seq": req.Seq, "results": results})
		}
	}()
	rec := &frameRecorder{Conn: near}
	cl := NewConn(rec)
	defer cl.Close()
	ctx := context.Background()
	if err := cl.Ping(ctx); err != nil || cl.ServerProto() != 2 {
		t.Fatalf("ping: %v, proto %d", err, cl.ServerProto())
	}
	rec.take()
	if err := cl.Begin(ctx, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.GetNode(ctx, 1); err == nil || !strings.Contains(err.Error(), "generation 2") {
		t.Errorf("a read inside a transaction: %v, want the generation named", err)
	}
	if err := cl.SetNodeProp(ctx, 1, "k", neograph.Int(1)); err != nil {
		t.Error(err)
	}
	if err := cl.Commit(ctx); err == nil || !strings.Contains(err.Error(), "generation 2") || !cl.InTx() {
		t.Errorf("[begin,set,commit]: %v, in tx=%v; want the generation named and the transaction kept", err, cl.InTx())
	}
	if err := cl.Abort(ctx); err != nil || cl.InTx() {
		t.Errorf("abort of what the server never saw: %v", err)
	}
	if sent := rec.take(); len(sent) != 0 {
		t.Errorf("frames sent: %v, want none", sent)
	}
}

// ---- lockstep histories: a flush after every call vs none ----

// A history is two sessions' explicit transactions, interleaved segment by
// segment. A segment is what one flush carries: calls that return no data,
// then one that needs an answer (or the commit); the other session acts
// only between segments. With a Flush after every call the server runs the
// same sub-ops in the same order as without, one frame each — so the two
// runs must agree on every read, every created ID, every transaction's
// fate and the final graph.
type histCall struct {
	kind string // begin-si begin-rc get nbrs set label unlabel del detach create rel batch flush commit abort
	a, b int    // pool indexes; -1 names the node this transaction created last
	val  int64
}

type histSegment struct {
	sess  int
	calls []histCall
}

const histPool = 6

// genHistory builds a seeded history. A read-committed call waits for a
// lock where a snapshot one fails, and one script goroutine cannot be
// waited for: a read-committed transaction only touches pool nodes the
// other session's open transaction has not, and none once that one has
// created or deleted anything.
func genHistory(rng *rand.Rand, segments int) []histSegment {
	type txModel struct {
		open, rc, wide bool
		touched        map[int]bool
		created        bool
		// An abort returns a transaction's unused IDs in no fixed order: two
		// runs agree on IDs only while none makes two of a kind.
		madeNode, madeRel bool
	}
	var model [2]txModel
	var out []histSegment
	for len(out) < segments {
		s := rng.Intn(2)
		me, other := &model[s], &model[1-s]
		seg := histSegment{sess: s}
		if !me.open {
			*me = txModel{open: true, rc: rng.Intn(4) == 0, touched: map[int]bool{}}
			if me.rc {
				seg.calls = append(seg.calls, histCall{kind: "begin-rc"})
			} else {
				seg.calls = append(seg.calls, histCall{kind: "begin-si"})
			}
		}
		pick := func() (int, bool) {
			if me.created && rng.Intn(3) == 0 {
				return -1, true
			}
			for try := 0; try < 8; try++ {
				k := rng.Intn(histPool)
				blocked := other.open && (other.touched[k] || other.wide)
				if (me.rc || other.rc) && blocked {
					continue
				}
				me.touched[k] = true
				return k, true
			}
			return 0, false
		}
		add := func(kind string) {
			c := histCall{kind: kind, val: rng.Int63n(1000)}
			var ok bool
			if c.a, ok = pick(); !ok {
				return
			}
			if kind == "rel" || kind == "batch" {
				if c.b, ok = pick(); !ok {
					return
				}
			}
			seg.calls = append(seg.calls, c)
		}
		for n := rng.Intn(4); n > 0; n-- { // the deferred run
			kinds := []string{"set", "set", "set", "label", "unlabel"}
			if !me.rc && !other.rc {
				kinds = append(kinds, "del", "detach")
			}
			k := kinds[rng.Intn(len(kinds))]
			if k == "del" || k == "detach" {
				me.wide = true
			}
			add(k)
		}
		switch r := rng.Intn(10); { // the call that flushes it
		case r < 3:
			add("get")
		case r < 4:
			add("nbrs")
		case r < 5 && !me.madeNode && !me.madeRel:
			me.madeNode, me.madeRel = true, true
			add("batch")
		case r < 6 && !me.rc && !other.rc && !me.madeNode:
			me.wide, me.created, me.madeNode = true, true, true
			seg.calls = append(seg.calls, histCall{kind: "create", val: rng.Int63n(1000)})
		case r < 7 && !me.rc && !other.rc && !me.madeRel:
			me.wide, me.madeRel = true, true
			add("rel")
		case r < 9:
			seg.calls = append(seg.calls, histCall{kind: "commit"})
			me.open = false
		default:
			seg.calls = append(seg.calls, histCall{kind: "abort"})
			me.open = false
		}
		// (No node was free for the call that was to flush: flush as such.)
		flushes := false
		if n := len(seg.calls); n > 0 {
			switch seg.calls[n-1].kind {
			case "get", "nbrs", "batch", "create", "rel", "commit", "abort":
				flushes = true
			}
		}
		if !flushes {
			seg.calls = append(seg.calls, histCall{kind: "flush"})
		}
		out = append(out, seg)
	}
	for s := range model { // close what is still open
		if model[s].open {
			out = append(out, histSegment{sess: s, calls: []histCall{{kind: "commit"}}})
		}
	}
	return out
}

// histTx is what one run saw of one transaction.
type histTx struct {
	Tag       string
	Committed bool
	Failed    string   // the sentinel that aborted it, if one did
	Reads     []string // every answer it got, in order
	wrote     map[neograph.NodeID]bool
}

// errClass names the sentinel an error carries.
func errClass(err error) string {
	for _, c := range []struct {
		name string
		err  error
	}{
		{"not-found", neograph.ErrNotFound}, {"conflict", neograph.ErrWriteConflict},
		{"deadlock", neograph.ErrDeadlock}, {"has-rels", neograph.ErrHasRels},
		{"overloaded", ErrOverloaded}, {"broken", ErrBroken},
	} {
		if errors.Is(err, c.err) {
			return c.name
		}
	}
	return err.Error()
}

// runHistory plays hist against srv on two sessions, flushing after every
// call when eager, and returns each session's transactions in order. Every
// write also sets a property named after its transaction on the same node:
// the tag by which the final graph is checked for transactions that
// committed in part.
func runHistory(t *testing.T, srv *server.Server, hist []histSegment, eager bool) (txs [2][]*histTx, pool []neograph.NodeID) {
	t.Helper()
	ctx := context.Background()
	var cls [2]*Client
	for s := range cls {
		c, err := Dial(ctx, srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		cls[s] = c
	}
	for i := 0; i < histPool; i++ {
		id, err := cls[0].CreateNode(ctx, []string{"Pool"}, neograph.Props{"v": neograph.Int(0)})
		if err != nil {
			t.Fatal(err)
		}
		pool = append(pool, id)
	}
	for i := 0; i+1 < histPool; i += 2 { // some relationships for del / detach / nbrs to meet
		if _, err := cls[0].CreateRel(ctx, "R", pool[i], pool[i+1], nil); err != nil {
			t.Fatal(err)
		}
	}
	type sessState struct {
		cur     *histTx
		dead    bool // the transaction failed: its remaining calls are skipped
		created neograph.NodeID
	}
	var st [2]sessState
	for _, seg := range hist {
		cl, ss := cls[seg.sess], &st[seg.sess]
		for _, c := range seg.calls {
			if ss.dead { // the script's commit or abort is where the dead transaction's calls end
				ss.dead = c.kind != "commit" && c.kind != "abort"
				if c.kind == "abort" {
					// It was to be given up anyway, and without a flush after
					// every call its failing write is never even sent.
					ss.cur.Failed = ""
				}
				continue
			}
			node := func(i int) neograph.NodeID {
				if i < 0 {
					return ss.created
				}
				return pool[i]
			}
			// tagged defers the transaction's mark beside a write to id.
			tagged := func(id neograph.NodeID, err error) error {
				if err != nil {
					return err
				}
				ss.cur.wrote[id] = true
				return cl.SetNodeProp(ctx, id, ss.cur.Tag, neograph.Int(1))
			}
			var err error
			switch c.kind {
			case "begin-si", "begin-rc":
				ss.cur = &histTx{Tag: fmt.Sprintf("t%d_%d", seg.sess, len(txs[seg.sess])), wrote: map[neograph.NodeID]bool{}}
				txs[seg.sess] = append(txs[seg.sess], ss.cur)
				ss.dead, ss.created = false, 0
				err = cl.Begin(ctx, strings.TrimPrefix(c.kind, "begin-"))
			case "get":
				var n neograph.Node
				if n, err = cl.GetNode(ctx, node(c.a)); err == nil {
					ss.cur.Reads = append(ss.cur.Reads, fmt.Sprintf("get %d: %v %v", n.ID, n.Labels, n.Props))
				}
			case "nbrs":
				var ids []neograph.NodeID
				if ids, err = cl.Neighbors(ctx, node(c.a), "both"); err == nil {
					ss.cur.Reads = append(ss.cur.Reads, fmt.Sprintf("nbrs %d: %v", node(c.a), ids))
				}
			case "set":
				err = tagged(node(c.a), cl.SetNodeProp(ctx, node(c.a), "v", neograph.Int(c.val)))
			case "label":
				err = tagged(node(c.a), cl.AddLabel(ctx, node(c.a), "L"))
			case "unlabel":
				err = tagged(node(c.a), cl.RemoveLabel(ctx, node(c.a), "L"))
			case "del":
				err = cl.DeleteNode(ctx, node(c.a))
			case "detach":
				err = cl.DetachDeleteNode(ctx, node(c.a))
			case "create":
				if ss.created, err = cl.CreateNode(ctx, []string{"Made"}, neograph.Props{"v": neograph.Int(c.val)}); err == nil {
					ss.cur.Reads = append(ss.cur.Reads, fmt.Sprintf("created %d", ss.created))
				}
			case "rel":
				var id neograph.RelID
				if id, err = cl.CreateRel(ctx, "R", node(c.a), node(c.b), nil); err == nil {
					ss.cur.Reads = append(ss.cur.Reads, fmt.Sprintf("rel %d", id))
				}
			case "batch":
				// A node made and linked by back reference, beside a write and a read.
				var b Batch
				made := b.CreateNode([]string{"Made"}, nil)
				b.CreateRelRef("R", made, made, nil)
				b.SetNodeProp(node(c.a), "v", neograph.Int(c.val))
				b.SetNodeProp(node(c.a), ss.cur.Tag, neograph.Int(1))
				ss.cur.wrote[node(c.a)] = true
				get := b.GetNode(node(c.b))
				var res *BatchResults
				if res, err = cl.RunBatch(ctx, &b); err == nil {
					id, _ := res.ID(made)
					n, _ := res.Node(get)
					ss.cur.Reads = append(ss.cur.Reads, fmt.Sprintf("batch made %d, get %d: %v %v", id, n.ID, n.Labels, n.Props))
				}
			case "flush":
				err = cl.Flush(ctx)
			case "commit":
				if err = cl.Commit(ctx); err == nil {
					ss.cur.Committed = true
				}
			case "abort":
				err = cl.Abort(ctx)
			}
			if err == nil && eager && c.kind != "commit" && c.kind != "abort" {
				err = cl.Flush(ctx)
			}
			if err != nil {
				// What any caller does with a failed transaction: give it up.
				ss.cur.Failed = errClass(err)
				ss.dead = c.kind != "commit" && c.kind != "abort"
				if cl.InTx() {
					if err := cl.Abort(ctx); err != nil {
						t.Fatalf("abort after %q: %v", ss.cur.Failed, err)
					}
				}
			}
			if cl.Broken() {
				t.Fatalf("session %d broke at %s: %v", seg.sess, c.kind, err)
			}
		}
	}
	return txs, pool
}

// checkAtomic reads the final graph for transactions that took effect in
// part: a committed transaction's tag is on every node it wrote that still
// exists, an uncommitted one's on none.
func checkAtomic(t *testing.T, what string, db *neograph.DB, txs [2][]*histTx) {
	t.Helper()
	tagged := map[string]map[neograph.NodeID]bool{}
	err := db.View(func(tx *neograph.Tx) error {
		ids, err := tx.AllNodes()
		if err != nil {
			return err
		}
		for _, id := range ids {
			n, err := tx.GetNode(id)
			if err != nil {
				return err
			}
			for k := range n.Props {
				if strings.HasPrefix(k, "t") {
					if tagged[k] == nil {
						tagged[k] = map[neograph.NodeID]bool{}
					}
					tagged[k][id] = true
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, sess := range txs {
		for _, tx := range sess {
			got := tagged[tx.Tag]
			if !tx.Committed {
				if len(got) != 0 {
					t.Errorf("%s: %s did not commit (%s) yet its writes are on %v", what, tx.Tag, tx.Failed, got)
				}
				continue
			}
			for id := range got {
				if !tx.wrote[id] {
					t.Errorf("%s: %s's tag is on node %d, which it never wrote", what, tx.Tag, id)
				}
			}
			for id := range tx.wrote {
				gone := false
				db.View(func(v *neograph.Tx) error {
					_, err := v.GetNode(id)
					gone = errors.Is(err, neograph.ErrNotFound)
					return nil
				})
				if !got[id] && !gone {
					t.Errorf("%s: %s committed without its write to node %d", what, tx.Tag, id)
				}
			}
		}
	}
}

func dump(t *testing.T, db *neograph.DB) string {
	t.Helper()
	var buf bytes.Buffer
	if err := db.View(func(tx *neograph.Tx) error { return neograph.Export(tx, &buf) }); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestFlushEveryCallOrNever runs seeded histories twice — a Flush after
// every call, and none — against two servers, and holds the runs to the
// same reads, created IDs, fates and final graph; then again on a server
// that sheds every frame over ~256 bytes, where only atomicity is claimed:
// a transaction the client gave up on leaves nothing, one it committed
// leaves everything.
func TestFlushEveryCallOrNever(t *testing.T) {
	open := func(cfg server.Config) (*neograph.DB, *server.Server) {
		db, err := neograph.Open(neograph.Options{})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.NewWithConfig(db, "127.0.0.1:0", cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close(); db.Close() })
		return db, srv
	}
	committed, failed, shed := 0, map[string]int{}, 0
	for seed := int64(1); seed <= 30; seed++ {
		hist := genHistory(rand.New(rand.NewSource(seed)), 60)
		what := fmt.Sprintf("seed %d", seed)
		eagerDB, eagerSrv := open(server.Config{})
		lazyDB, lazySrv := open(server.Config{})
		eager, _ := runHistory(t, eagerSrv, hist, true)
		lazy, _ := runHistory(t, lazySrv, hist, false)
		for s := range eager {
			if len(eager[s]) != len(lazy[s]) {
				t.Fatalf("%s: session %d ran %d transactions flushing every call, %d never", what, s, len(eager[s]), len(lazy[s]))
			}
			for i, e := range eager[s] {
				l := lazy[s][i]
				if e.Committed != l.Committed || e.Failed != l.Failed || !reflect.DeepEqual(e.Reads, l.Reads) {
					t.Errorf("%s: %s differs:\n every call: committed=%v failed=%q reads=%q\n      never: committed=%v failed=%q reads=%q",
						what, e.Tag, e.Committed, e.Failed, e.Reads, l.Committed, l.Failed, l.Reads)
				}
				if e.Committed {
					committed++
				} else if e.Failed != "" {
					failed[e.Failed]++
				}
			}
		}
		if e, l := dump(t, eagerDB), dump(t, lazyDB); e != l {
			t.Errorf("%s: final graphs differ:\n every call:\n%s\n never:\n%s", what, e, l)
		}
		checkAtomic(t, what+" (every call)", eagerDB, eager)
		checkAtomic(t, what+" (never)", lazyDB, lazy)

		tightDB, tightSrv := open(server.Config{MaxQueuedBytes: 256})
		tight, _ := runHistory(t, tightSrv, hist, false)
		checkAtomic(t, what+" (shedding)", tightDB, tight)
		for _, sess := range tight {
			for _, tx := range sess {
				if tx.Failed == "overloaded" {
					shed++
				}
			}
		}
	}
	// The histories must have met what they are for.
	if committed < 100 || failed["conflict"] == 0 || failed["not-found"] == 0 || shed == 0 {
		t.Errorf("thin histories: %d commits, failures %v, %d transactions shed", committed, failed, shed)
	}
	t.Logf("%d commits, failures %v, %d transactions shed", committed, failed, shed)
}

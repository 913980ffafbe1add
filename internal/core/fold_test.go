package core

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"neograph/internal/faultfs"
	"neograph/internal/trace"
	"neograph/internal/value"
)

// parkFS is the real file system, except that once armed it holds the
// next Sync of a store file (anything but a WAL segment) until released —
// which is where a checkpoint sits while it persists.
type parkFS struct {
	faultfs.OS
	armed   atomic.Bool
	parked  chan struct{} // closed once a Sync is being held
	release chan struct{} // close to let it through
}

func newParkFS() *parkFS {
	return &parkFS{parked: make(chan struct{}), release: make(chan struct{})}
}

func (p *parkFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := p.OS.OpenFile(name, flag, perm)
	if err != nil || faultfs.DefaultLabel(name) == "wal" {
		return f, err
	}
	return &parkFile{File: f, fs: p}, nil
}

type parkFile struct {
	faultfs.File
	fs *parkFS
}

func (f *parkFile) Sync() error {
	if f.fs.armed.CompareAndSwap(true, false) {
		close(f.fs.parked)
		<-f.fs.release
	}
	return f.File.Sync()
}

// A decision that lands while a checkpoint is persisting un-parks its 'P'
// record, whose sealed segment holds the only durable copy of the
// mutations the decision just installed (they were not in the dirty set
// the checkpoint cut). The checkpoint must not truncate it.
func TestDecisionDuringCheckpointSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	fs := newParkFS()
	e, err := Open(Options{Dir: dir, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	seedNode(t, e, []string{"Filler"}, nil) // something for the checkpoint to persist

	tx := e.Begin()
	id, err := tx.CreateNode([]string{"Decided"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Prepare(7, 0, nil); err != nil {
		t.Fatalf("Prepare: %v", err)
	}

	fs.armed.Store(true)
	checkpointed := make(chan error, 1)
	go func() { checkpointed <- e.Checkpoint() }()
	<-fs.parked // past its cut, in the middle of its persist
	if _, _, err := e.DecideTxn(7, true, nil); err != nil {
		t.Fatalf("DecideTxn during checkpoint: %v", err)
	}
	close(fs.release)
	if err := <-checkpointed; err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	e.Crash()

	e = diskEngine(t, dir)
	defer e.Close()
	r := e.Begin()
	defer r.Abort()
	if _, err := r.GetNode(id); err != nil {
		t.Fatalf("acknowledged decision lost across checkpoint+crash: %v", err)
	}
}

// The Prepare-side twin: a checkpoint that cuts after the 'P' record is
// in the log, while Prepare still waits for its fsync, must find the
// transaction already in the prepared table — or it truncates the record
// and the crash that follows forgets a transaction the coordinator was
// told is prepared.
func TestPrepareDuringCheckpointStaysInDoubt(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// The group-commit fsync is held, so Prepare sits between its append
	// and its fsync until the test releases it.
	gate := gateBatcher(e)
	tx := e.Begin()
	id, err := tx.CreateNode([]string{"Pinned"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	prepared := make(chan error, 1)
	go func() {
		_, err := tx.Prepare(9, 1, nil)
		prepared <- err
	}()
	<-gate.entered // the 'P' record is logged and folded
	if err := e.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	close(gate.release)
	if err := <-prepared; err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	e.Crash()

	e = diskEngine(t, dir)
	defer e.Close()
	if d := e.InDoubt(); len(d) != 1 || d[0].Gtxn != 9 {
		t.Fatalf("acknowledged prepare lost across checkpoint+crash: InDoubt = %+v", d)
	}
	if _, _, err := e.DecideTxn(9, true, nil); err != nil {
		t.Fatalf("DecideTxn: %v", err)
	}
	r := e.Begin()
	defer r.Abort()
	if _, err := r.GetNode(id); err != nil {
		t.Fatalf("node missing: %v", err)
	}
}

// engineState is everything an engine derived from its log that another
// engine folding the same log must agree on.
type engineState struct {
	Dump      string
	InDoubt   []PreparedInfo
	Unacked   []DecidedInfo
	Status    map[uint64]TxnState
	Watermark uint64
}

func captureState(t *testing.T, e *Engine, gtxns []uint64) engineState {
	t.Helper()
	st := engineState{Watermark: e.Watermark(), Status: map[uint64]TxnState{}}
	tx := e.Begin()
	defer tx.Abort()
	var b strings.Builder
	nodes, err := tx.AllNodes()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range nodes {
		n, err := tx.GetNode(id)
		if err != nil {
			t.Fatal(err)
		}
		out, _ := tx.Neighbors(id, Outgoing)
		fmt.Fprintf(&b, "node %d %v %v -> %v\n", id, n.Labels, n.Props, out)
	}
	rels, err := tx.AllRels()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range rels {
		r, err := tx.GetRel(id)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "rel %d %s %d->%d %v\n", id, r.Type, r.Start, r.End, r.Props)
	}
	byLabel, _ := tx.NodesByLabel("Acct")
	byProp, _ := tx.NodesByProperty("bal", value.Int(60))
	fmt.Fprintf(&b, "label Acct %v, bal=60 %v\n", byLabel, byProp)
	st.Dump = b.String()

	st.InDoubt = e.InDoubt()
	sort.Slice(st.InDoubt, func(i, j int) bool { return st.InDoubt[i].Gtxn < st.InDoubt[j].Gtxn })
	st.Unacked = e.UnackedDecisions()
	sort.Slice(st.Unacked, func(i, j int) bool { return st.Unacked[i].Gtxn < st.Unacked[j].Gtxn })
	for i := range st.Unacked {
		p := st.Unacked[i].Participants
		sort.Slice(p, func(a, b int) bool { return p[a] < p[b] })
	}
	for _, g := range gtxns {
		st.Status[g] = e.TxnStatus(g)
	}
	return st
}

// probeGuards checks what a log's fold leaves behind for the next writer:
// the keys its in-doubt transaction holds refuse a conflicting write, and
// the allocators hand out the same next IDs. It leaves the engine as it
// found it.
func probeGuards(t *testing.T, who string, e *Engine, written, guarded uint64) (nextNode, nextRel uint64) {
	t.Helper()
	w := e.Begin()
	if err := w.SetNodeProp(written, "bal", value.Int(0)); !errors.Is(err, ErrWriteConflict) {
		t.Errorf("%s: write to a prepared key: %v, want ErrWriteConflict", who, err)
	}
	if err := w.SetNodeProp(guarded, "bal", value.Int(0)); !errors.Is(err, ErrWriteConflict) {
		t.Errorf("%s: write to a guarded endpoint: %v, want ErrWriteConflict", who, err)
	}
	w.Abort()
	a := e.Begin()
	defer a.Abort() // returns both IDs
	nextNode, err := a.CreateNode(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	nextRel, err = a.CreateRel("PROBE", nextNode, nextNode, nil)
	if err != nil {
		t.Fatal(err)
	}
	return nextNode, nextRel
}

// One log holding every record tag and every two-phase-commit outcome is
// folded three ways — by the primary that wrote it, by a replica fed it
// record by record, by a fresh engine recovering it after a crash — and
// all three must end up as the same engine.
func TestRedoEquivalence(t *testing.T) {
	tracer := trace.New(1, 16)
	primaryDir := t.TempDir()
	opts := func(o *Options) { o.NoSyncCommits = true; o.Tracer = tracer }
	a := diskEngine(t, primaryDir, opts)
	c := diskEngine(t, t.TempDir(), opts, func(o *Options) { o.Replica = true })
	defer c.Close()

	// ship feeds the replica what the primary logged since the last call —
	// before a checkpoint can truncate it — and notes the tags that passed.
	tags := map[byte]bool{}
	ship := func() {
		t.Helper()
		err := a.WAL().ReadRange(c.AppliedLSN(), a.AppliedLSN(), func(lsn uint64, payload []byte) error {
			tags[payload[0]] = true
			return c.ApplyReplicated(lsn, append([]byte(nil), payload...))
		})
		if err != nil {
			t.Fatalf("ship: %v", err)
		}
	}
	prepare := func(gtxn uint64, guard []uint64, stage func(tx *Tx)) {
		t.Helper()
		tx := a.Begin()
		stage(tx)
		if _, err := tx.Prepare(gtxn, 1, guard); err != nil {
			t.Fatalf("Prepare %d: %v", gtxn, err)
		}
	}
	decide := func(gtxn uint64, commit bool, parts []uint32) {
		t.Helper()
		if _, _, err := a.DecideTxn(gtxn, commit, parts); err != nil {
			t.Fatalf("DecideTxn %d: %v", gtxn, err)
		}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	create := func(tx *Tx, labels ...string) uint64 {
		t.Helper()
		id, err := tx.CreateNode(labels, value.Map{"bal": value.Int(50)})
		must(err)
		return id
	}

	// 'C', and a traced 'T'+'C'.
	tx := a.Begin()
	n0, n1, n2 := create(tx, "Acct"), create(tx, "Acct"), create(tx, "Acct")
	_, err := tx.CreateRel("PAYS", n0, n1, nil)
	must(err)
	mustCommit(t, tx)
	tx = a.Begin()
	root := tracer.StartRoot("test.commit")
	tx.SetTraceSpan(root)
	must(tx.SetNodeProp(n1, "traced", value.Bool(true)))
	mustCommit(t, tx)
	root.Finish()

	const committed, aborted, acked, truncated, inDoubt, abortedLate = 1, 2, 3, 4, 5, 6
	// Committed, a participant's view (no participants of its own).
	prepare(committed, nil, func(tx *Tx) {
		must(tx.SetNodeProp(n0, "bal", value.Int(60)))
		create(tx, "Acct")
	})
	decide(committed, true, nil)
	// Aborted: its created IDs go back to the allocators.
	prepare(aborted, nil, func(tx *Tx) {
		x := create(tx, "Ghost")
		_, err := tx.CreateRel("PAYS", n1, x, nil)
		must(err)
	})
	decide(aborted, false, nil)
	// A coordinator's decision, acked by every participant: 'D' then 'E'.
	prepare(acked, nil, func(tx *Tx) { must(tx.SetNodeProp(n1, "bal", value.Int(40))) })
	decide(acked, true, []uint32{1, 2})
	a.AckDecision(acked, 1)
	a.AckDecision(acked, 2)
	// A coordinator's decision still owed to a participant, whose 'P' the
	// second checkpoint truncates once the first has sealed its segment.
	prepare(truncated, nil, func(tx *Tx) { create(tx, "Late") })
	ship()
	must(a.Checkpoint())
	decide(truncated, true, []uint32{1})
	ship()
	must(a.Checkpoint())
	// The tail a recovery replays: a commit, a transaction left in doubt
	// (a write, a creation, a guarded endpoint) and a late abort.
	tx = a.Begin()
	must(tx.SetNodeProp(n0, "z", value.String("tail")))
	mustCommit(t, tx)
	prepare(inDoubt, []uint64{n0}, func(tx *Tx) {
		must(tx.SetNodeProp(n2, "bal", value.Int(70)))
		create(tx, "Pending")
	})
	prepare(abortedLate, nil, func(tx *Tx) { create(tx, "Ghost") })
	decide(abortedLate, false, nil)
	tx = a.Begin()
	must(tx.SetNodeProp(n1, "z", value.String("last")))
	mustCommit(t, tx)
	ship()

	for _, tag := range []byte{recCommit, recCheckpoint, recTrace, recPrepare, recDecision, recAckEnd} {
		if !tags[tag] {
			t.Errorf("the log holds no %q record", tag)
		}
	}
	start, err := a.WAL().StartLSN()
	must(err)
	if start == 0 {
		t.Error("the primary's log was never truncated: recovery will not see a 'D' without its 'P'")
	}

	gtxns := []uint64{committed, aborted, acked, truncated, inDoubt, abortedLate}
	want := captureState(t, a, gtxns)
	if len(want.InDoubt) != 1 || want.InDoubt[0].Gtxn != inDoubt || len(want.Unacked) != 1 || want.Unacked[0].Gtxn != truncated {
		t.Fatalf("the primary itself: in doubt %+v, unacked %+v", want.InDoubt, want.Unacked)
	}
	wantNode, wantRel := probeGuards(t, "primary", a, n2, n0)
	a.Crash()

	b := diskEngine(t, primaryDir, opts)
	defer b.Close()
	must(c.Promote()) // a replica refuses every writer; the guards matter once it is promoted
	for who, e := range map[string]*Engine{"recovered": b, "replica": c} {
		if got := captureState(t, e, gtxns); !reflect.DeepEqual(got, want) {
			t.Errorf("%s engine differs from the primary that wrote the log:\n got %+v\nwant %+v", who, got, want)
		}
		if node, rel := probeGuards(t, who, e, n2, n0); node != wantNode || rel != wantRel {
			t.Errorf("%s: next IDs node %d rel %d, the primary's are node %d rel %d", who, node, rel, wantNode, wantRel)
		}
	}
}

// An aborted prepare's created ID goes back to the allocator and the next
// transaction re-uses it. When a checkpoint persists that entity while the
// log is still pinned below the abort, a restart replays the abort over a
// store that already holds the ID's new owner: the replay must not free
// it again — on the primary that wrote the log, and on a replica that
// received it, checkpointed, restarted and was promoted.
func TestRedoOfAbortKeepsReusedID(t *testing.T) {
	primaryDir, replicaDir := t.TempDir(), t.TempDir()
	a := diskEngine(t, primaryDir)
	c := diskEngine(t, replicaDir, func(o *Options) { o.Replica = true })
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	pin := seedNode(t, a, []string{"Pin"}, nil)
	tx := a.Begin()
	must(tx.SetNodeProp(pin, "held", value.Bool(true)))
	_, err := tx.Prepare(1, 1, nil) // stays in doubt: no checkpoint truncates past it
	must(err)
	tx = a.Begin()
	x, err := tx.CreateNode([]string{"Ghost"}, nil)
	must(err)
	_, err = tx.Prepare(2, 1, nil)
	must(err)
	_, _, err = a.DecideTxn(2, false, nil)
	must(err)
	if y := seedNode(t, a, []string{"Owner"}, nil); y != x {
		t.Fatalf("the aborted prepare's ID %d was not re-used (got %d): the test needs it to be", x, y)
	}
	must(a.WAL().ReadRange(c.AppliedLSN(), a.AppliedLSN(), func(lsn uint64, payload []byte) error {
		return c.ApplyReplicated(lsn, append([]byte(nil), payload...))
	}))
	must(a.Checkpoint())
	must(c.Checkpoint())
	a.Crash()
	c.Crash()

	a = diskEngine(t, primaryDir)
	defer a.Close()
	c = diskEngine(t, replicaDir, func(o *Options) { o.Replica = true })
	defer c.Close()
	must(c.Promote())
	for who, e := range map[string]*Engine{"recovered primary": a, "restarted replica": c} {
		if d := e.InDoubt(); len(d) != 1 || d[0].Gtxn != 1 {
			t.Fatalf("%s: InDoubt = %+v, want the pinning transaction only", who, d)
		}
		tx := e.Begin()
		if n, err := tx.GetNode(x); err != nil || len(n.Labels) != 1 || n.Labels[0] != "Owner" {
			t.Errorf("%s: node %d = %+v, %v; want the re-using owner", who, x, n, err)
		}
		if id, err := tx.CreateNode(nil, nil); err != nil || id == x {
			t.Errorf("%s: CreateNode = %d, %v: a live node's ID was handed out again", who, id, err)
		}
		tx.Abort()
	}
}

// When the last participant acks and the log refuses the 'E' record, the
// decision must still leave the table: with nobody left to push to, an
// entry that stayed could never be acked again and would pin the log
// until the process ends.
func TestAckDecisionEndsWithoutItsRecord(t *testing.T) {
	inj := faultfs.NewInjector(faultfs.OS{}, nil)
	e, err := Open(Options{Dir: t.TempDir(), FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Crash()
	tx := e.Begin()
	if _, err := tx.CreateNode(nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Prepare(3, 0, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.DecideTxn(3, true, []uint32{1}); err != nil {
		t.Fatal(err)
	}
	inj.Arm(faultfs.Fault{Point: "wal.write", Hit: 1, Mode: faultfs.ModeWriteFail})
	e.AckDecision(3, 1)
	if !inj.Fired() {
		t.Fatal("the 'E' record's append never failed: the test exercised nothing")
	}
	if u := e.UnackedDecisions(); len(u) != 0 {
		t.Errorf("UnackedDecisions = %+v after the last ack", u)
	}
	if _, pinned := e.twopcFloor(); pinned {
		t.Error("a fully acked decision still pins the log")
	}
}

// Commits, prepares, decisions, acks and checkpoints all at once, under
// both conflict policies: every acknowledged increment — plain or
// two-phase — must be there after a crash, and nothing may stay parked.
// (With the race detector this is also the test that the three entry
// points take latches, gate and tables in one order.)
func TestAckedWritesSurviveConcurrentCheckpoints(t *testing.T) {
	for _, policy := range []ConflictPolicy{FirstUpdaterWins, FirstCommitterWins} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			e := diskEngine(t, dir, func(o *Options) { o.Conflict = policy; o.WALSegmentSize = 4096 })
			const counters, workers, rounds = 4, 4, 60
			var ids []uint64
			for i := 0; i < counters; i++ {
				ids = append(ids, seedNode(t, e, []string{"Counter"}, value.Map{"n": value.Int(0)}))
			}
			increment := func(tx *Tx, id uint64) error {
				n, err := tx.GetNode(id)
				if err != nil {
					return err
				}
				v, _ := n.Props["n"].AsInt()
				return tx.SetNodeProp(id, "n", value.Int(v+1))
			}

			stop := make(chan struct{})
			checkpointer := make(chan error, 1)
			go func() {
				for {
					select {
					case <-stop:
						checkpointer <- nil
						return
					default:
						if err := e.Checkpoint(); err != nil {
							checkpointer <- err
							return
						}
					}
				}
			}()

			var acked [counters]atomic.Int64
			var gtxn atomic.Uint64
			done := make(chan error, workers)
			for w := 0; w < workers; w++ {
				go func(w int) {
					for i := 0; i < rounds; i++ {
						c := (w + i) % counters
						tx := e.Begin()
						if err := increment(tx, ids[c]); err != nil {
							tx.Abort()
							if errors.Is(err, ErrWriteConflict) {
								continue
							}
							done <- err
							return
						}
						if i%2 == 0 {
							if err := tx.Commit(); err == nil {
								acked[c].Add(1)
							} else if !errors.Is(err, ErrWriteConflict) {
								done <- err
								return
							}
							continue
						}
						g := gtxn.Add(1)
						if _, err := tx.Prepare(g, 0, nil); err != nil {
							if errors.Is(err, ErrWriteConflict) {
								continue
							}
							done <- err
							return
						}
						if _, _, err := e.DecideTxn(g, g%3 != 0, []uint32{1}); err != nil {
							done <- err
							return
						}
						if g%3 != 0 {
							acked[c].Add(1)
							e.AckDecision(g, 1)
						}
					}
					done <- nil
				}(w)
			}
			for w := 0; w < workers; w++ {
				if err := <-done; err != nil {
					t.Error(err)
				}
			}
			close(stop)
			if err := <-checkpointer; err != nil {
				t.Errorf("Checkpoint: %v", err)
			}
			e.Crash()

			e = diskEngine(t, dir)
			defer e.Close()
			if d, u := e.InDoubt(), e.UnackedDecisions(); len(d) != 0 || len(u) != 0 {
				t.Errorf("left over after recovery: in doubt %+v, unacked %+v", d, u)
			}
			tx := e.Begin()
			defer tx.Abort()
			for c, id := range ids {
				n, err := tx.GetNode(id)
				if err != nil {
					t.Fatal(err)
				}
				if v, _ := n.Props["n"].AsInt(); v != acked[c].Load() {
					t.Errorf("counter %d = %d after recovery, %d increments were acknowledged", c, v, acked[c].Load())
				}
			}
		})
	}
}

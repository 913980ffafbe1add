package server_test

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"neograph"
	"neograph/client"
	"neograph/internal/fleet"
	"neograph/internal/value"
	"neograph/internal/wire"
)

// TestEveryOpDispatched replays the op of every request in the wire
// package's golden transcript (which a wire test keeps in step with the
// Op* constants and the shape table) against a partitioned server: each
// one must be handled — dispatchOp, dispatchPartitionOp, the batch and
// query paths — and an op nobody handles must be rejected by name.
func TestEveryOpDispatched(t *testing.T) {
	f, err := os.Open("../wire/testdata/transcript.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var ops []string
	seen := make(map[string]bool)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var frame struct {
			Op string `json:"op"`
		}
		if err := json.Unmarshal(sc.Bytes(), &frame); err != nil {
			t.Fatal(err)
		}
		if frame.Op != "" && !seen[frame.Op] {
			seen[frame.Op] = true
			ops = append(ops, frame.Op)
		}
	}
	if len(ops) < 28 {
		t.Fatalf("golden transcript names only %d ops", len(ops))
	}

	fl, err := fleet.Start(fleet.Spec{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cl, err := client.Dial(ctx, fl.Groups[0][0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, op := range append(ops, "frobnicate") {
		// A bare request: most ops then fail on their arguments, which is
		// still an answer from the op's own handler.
		resp, err := cl.Do(ctx, &wire.Request{Op: op})
		if resp == nil {
			t.Fatalf("%s: no answer: %v", op, err)
		}
		unknown := strings.Contains(resp.Error, "unknown")
		switch {
		case op == "frobnicate":
			if resp.OK || !unknown || !strings.Contains(resp.Error, `"frobnicate"`) {
				t.Errorf("an op nobody handles was not rejected by name: %+v", resp)
			}
		case unknown:
			t.Errorf("%s is in the shape table but no dispatcher handles it: %s", op, resp.Error)
		}
	}
}

// TestBracketedBatchRefusedWhole: a batch whose begin or commit does not
// fit — out of place, a begin with a transaction open, a commit with none,
// either one on a batch that spans partitions — is refused before any
// sub-op runs: no failed_op, the nodes as they were, the session's
// transaction as it was.
func TestBracketedBatchRefusedWhole(t *testing.T) {
	fl, err := fleet.Start(fleet.Spec{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	dial := func(part int) *client.Client {
		cl, err := client.Dial(ctx, fl.Groups[part][0].Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		return cl
	}
	cl, other := dial(0), dial(1)
	here, err := cl.CreateNode(ctx, nil, neograph.Props{"x": neograph.Int(0)})
	if err != nil {
		t.Fatal(err)
	}
	there, err := other.CreateNode(ctx, nil, neograph.Props{"x": neograph.Int(0)})
	if err != nil {
		t.Fatal(err)
	}
	set := func(id uint64, v int) wire.Request {
		return wire.Request{Op: wire.OpSetNodeProp, ID: id, Key: "x", Value: value.EncodeValue(neograph.Int(int64(v)))}
	}
	begin, commit := wire.Request{Op: wire.OpBegin}, wire.Request{Op: wire.OpCommit}
	get := wire.Request{Op: wire.OpGetNode, ID: here}
	batch := func(ops ...wire.Request) *wire.Response {
		t.Helper()
		resp, _ := cl.Do(ctx, &wire.Request{Op: wire.OpBatch, Batch: ops})
		if resp == nil {
			t.Fatal("no answer")
		}
		return resp
	}
	refused := func(what, text string, ops ...wire.Request) {
		t.Helper()
		resp := batch(ops...)
		if resp.OK || resp.FailedOp != nil || !strings.Contains(resp.Error, text) {
			t.Errorf("%s: ok=%v failed_op=%v error=%q, want refused whole with %q", what, resp.OK, resp.FailedOp, resp.Error, text)
		}
	}
	// x as the session's transaction (or, with none open, a fresh one) reads it.
	x := func() int64 {
		t.Helper()
		resp := batch(get)
		if !resp.OK {
			t.Fatal(resp.Error)
		}
		props, err := value.ParseMap(resp.Results[0].Node.Props)
		if err != nil {
			t.Fatal(err)
		}
		v, _ := props["x"].AsInt()
		return v
	}

	refused("begin not first", "first sub-op", set(here, 1), begin)
	refused("commit not last", "last sub-op", commit, set(here, 1))
	refused("commit with none open", "no open transaction", set(here, 1), commit)
	refused("begin across partitions", "cross-partition", begin, set(here, 1), set(there, 1))
	if got := x(); got != 0 {
		t.Fatalf("a refused batch wrote x=%d", got)
	}

	if resp := batch(begin, set(here, 1)); !resp.OK || resp.LSN != 0 {
		t.Fatalf("[begin,set]: %+v", resp)
	}
	refused("begin with one open", "already open", begin, set(here, 2))
	refused("commit across partitions", "cross-partition", set(here, 2), set(there, 2), commit)
	if got := x(); got != 1 {
		t.Fatalf("the open transaction reads x=%d after two refused batches, want its own write 1", got)
	}
	if n, err := other.GetNode(ctx, there); err != nil || n.Props["x"] != neograph.Int(0) {
		t.Fatalf("partition 1's node after the refused batches: %v %v", n.Props, err)
	}
	resp := batch(set(here, 3), commit)
	if !resp.OK || resp.LSN == 0 || resp.LSN != resp.Results[1].LSN {
		t.Fatalf("[set,commit]: %+v", resp)
	}
	refused("commit again", "no open transaction", commit)
	if got := x(); got != 3 {
		t.Fatalf("committed x=%d, want 3", got)
	}

	// A commit that fails is the batch's failed op, and the transaction is gone.
	if resp := batch(begin, set(1_000_000, 1), commit); resp.OK || resp.FailedOp == nil || *resp.FailedOp != 1 || resp.Code != wire.CodeNotFound {
		t.Fatalf("[begin,set(missing),commit]: %+v", resp)
	}
	refused("commit after the abort", "no open transaction", commit)
}

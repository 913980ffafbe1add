package server_test

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"neograph/client"
	"neograph/internal/fleet"
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
	if len(ops) < 30 {
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

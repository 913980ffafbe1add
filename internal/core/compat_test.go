package core

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"neograph/internal/value"
)

// The resident layout of properties is the engine's own business; the
// bytes it logs and stores are not. These tests pin both against what the
// last release with a Go map per version (PR 14) wrote.

// goldenCommit is PR 14's commit record of (123, sampleMutations()).
const goldenCommit = "437b00000000000000030007000000000000000102074163636f756e7406506572736f6e02" +
	"0762616c616e63650254046e616d650405616c696365000900000000000000020104476f6e65" +
	"0001030000000000000001054b4e4f575307000000000000000900000000000000010573696e" +
	"636502c01f"

// goldenRecords are the other tags' bytes as PR 16 — the last release with
// an encoder per call site — wrote them for sampleRecords(): every
// mutation a whole state. Nothing writes an update or a deletion that way
// any more, but logs that hold them are still out there, so these stay as
// what the decoder must keep reading.
var goldenRecords = map[string]string{
	"commit":     goldenCommit,
	"checkpoint": "4b6300000000000000",
	"trace":      "542030616637363531393136636434336464383434386562323131633830333139631062376164366237313639323033333331",
	"prepare": "50080706050403020103000000020b000000000000000c00000000000000030007000000000000000102074163636f756e74" +
		"06506572736f6e020762616c616e63650254046e616d650405616c696365000900000000000000020104476f6e65000103000000" +
		"0000000001054b4e4f575307000000000000000900000000000000010573696e636502c01f",
	"prepareNoGuards": "504d000000000000000000000000010007000000000000000102074163636f756e7406506572736f6e0207" +
		"62616c616e63650254046e616d650405616c696365",
	"decideCommitOwing": "444d0000000000000001c801000000000000020100000002000000",
	"decideCommit":      "444d0000000000000001c80100000000000000",
	"decideAbortOwing":  "444d00000000000000000000000000000000020100000002000000",
	"decideAbort":       "444d0000000000000000000000000000000000",
	"ackEnd":            "454d00000000000000",
}

// goldenDeltas pin the layout PR 20 added to 'C' and 'P': flag bit 2 (a
// delta: the payload is a patch, a removed key marked 0xff; no labels, no
// relationship identity; a deletion nothing at all) and bit 3 (the new
// label set follows), over deltaMutations().
var goldenDeltas = map[string]string{
	"commitDeltas": "437c000000000000000600070000000000000004030762616c616e6365025204676f6e65ff04766f696400" +
		"0008000000000000000c02074163636f756e7406436c6f736564030762616c616e6365025204676f6e65ff04766f696400" +
		"0009000000000000000c0000" + "01030000000000000004010573696e636502c21f" +
		"000a0000000000000006" + "01040000000000000006",
	"prepareDeltas": "504e0000000000000001000000010b00000000000000" +
		"0600070000000000000004030762616c616e6365025204676f6e65ff04766f696400" +
		"0008000000000000000c02074163636f756e7406436c6f736564030762616c616e6365025204676f6e65ff04766f696400" +
		"0009000000000000000c0000" + "01030000000000000004010573696e636502c21f" +
		"000a0000000000000006" + "01040000000000000006",
}

// TestRecordBytesUnchanged: every pinned record decodes to its sample,
// and the sample encodes back to the pinned bytes — one decoder and one
// encoder for old logs and new.
func TestRecordBytesUnchanged(t *testing.T) {
	samples := sampleRecords()
	for _, goldens := range []map[string]string{goldenRecords, goldenDeltas} {
		for name, want := range goldens {
			payload, err := hex.DecodeString(want)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := decodeRecord(payload, nil); err != nil || !reflect.DeepEqual(&got, samples[name]) {
				t.Errorf("%s golden decodes to\n %+v, %v\nwant\n %+v", name, got, err, samples[name])
			}
			if got := hex.EncodeToString(appendRecord(nil, samples[name])); got != want {
				t.Errorf("%s record bytes changed:\n got %s\nwant %s", name, got, want)
			}
		}
	}
}

// TestOpensStoreWrittenByPR14 recovers testdata/store-pr14 — a data
// directory PR 14 wrote and crashed on: a checkpointed graph in the record
// files (every value kind, a value spilled to the dynamic store, labels, a
// self-loop) and a WAL tail over it (an update, a property removal, a
// label, two creations, a deletion) — then checkpoints it and reads the
// same graph back from its own files. (Store format 2 took the
// relationship chains out of the node and relationship records, and format
// 3 moved each entity's commit timestamp from its `__neograph_cts` property
// record into the entity's record, 40 bytes a relationship; the fixture's
// files were transcribed into each layout once — the timestamp records
// unlinked and zeroed, the old key left in the token file as an unused
// name. The other property records, the dynamic records and the WAL are
// the bytes the directory was first written with.)
func TestOpensStoreWrittenByPR14(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "store-pr14"))); err != nil {
		t.Fatal(err)
	}
	const ada, bob, bare, carol = 0, 1, 2, 3 // nodes
	const knows, likes, loop, knows2 = 0, 1, 2, 3
	verify := func(e *Engine) {
		t.Helper()
		tx := e.Begin()
		defer tx.Abort()
		wantNode := func(id uint64, labels []string, props value.Map) {
			t.Helper()
			n, err := tx.GetNode(id)
			if err != nil {
				t.Fatalf("node %d: %v", id, err)
			}
			if !reflect.DeepEqual(n.Labels, labels) || !n.Props.Equal(props) {
				t.Fatalf("node %d = %v %v, want %v %v", id, n.Labels, n.Props, labels, props)
			}
		}
		wantNode(ada, []string{"Admin", "Person"}, value.Map{
			"name": value.String("ada"), "age": value.Int(36), "score": value.Float(8.5),
			"raw": value.Bytes([]byte{1, 2, 3}), "tags": value.List(value.String("x"), value.Int(7)),
			"bio": value.String(string(make([]byte, 300))),
		})
		wantNode(bob, []string{"Admin", "Person"}, value.Map{"name": value.String("robert")})
		wantNode(bare, nil, value.Map{})
		wantNode(carol, []string{"Person"}, value.Map{"name": value.String("carol")})
		wantRel := func(id uint64, relType string, start, end uint64, props value.Map) {
			t.Helper()
			r, err := tx.GetRel(id)
			if err != nil {
				t.Fatalf("rel %d: %v", id, err)
			}
			if r.Type != relType || r.Start != start || r.End != end || !r.Props.Equal(props) {
				t.Fatalf("rel %d = %+v", id, r)
			}
		}
		wantRel(knows, "KNOWS", ada, bob, value.Map{"since": value.Int(2009)})
		wantRel(loop, "SELF", bare, bare, value.Map{"w": value.Float(0.25)})
		wantRel(knows2, "KNOWS", carol, ada, value.Map{"since": value.Int(2020)})
		if _, err := tx.GetRel(likes); err == nil {
			t.Fatal("deleted relationship is visible")
		}
		if ids, _ := tx.NodesByLabel("Person"); !reflect.DeepEqual(ids, []uint64{ada, bob, carol}) {
			t.Fatalf("label index = %v", ids)
		}
		if ids, _ := tx.NodesByProperty("name", value.String("robert")); !reflect.DeepEqual(ids, []uint64{bob}) {
			t.Fatalf("property index = %v", ids)
		}
		if ids, _ := tx.NodesByProperty("ok", value.Bool(true)); len(ids) != 0 {
			t.Fatalf("removed property still indexed: %v", ids)
		}
		if nb, _ := tx.Neighbors(ada, Both); !reflect.DeepEqual(nb, []uint64{bob, carol}) {
			t.Fatalf("neighbors of ada = %v", nb)
		}
	}

	e := diskEngine(t, dir)
	verify(e)
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	verify(e)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e = diskEngine(t, dir)
	defer e.Close()
	verify(e)
}

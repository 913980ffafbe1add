package wire

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"testing"

	"neograph/internal/value"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/transcript.golden from the current encoder")

// exchange is one request and the frame(s) that answer it.
type exchange struct {
	req   Request
	resps []Response
}

func raw(s string) json.RawMessage { return json.RawMessage(s) }
func intp(i int) *int              { return &i }
func boolp(b bool) *bool           { return &b }

// transcript is a session touching every op once: each request with a
// representative response, a batch with back references and its failure
// form, a query answered by a chunk stream, the 2PC control ops, and the
// error frames of every code. testdata/transcript.golden holds its bytes
// as the JSON framing wrote them when the golden was recorded (the parent
// of the PR that introduced Conn produced the same bytes with a bare
// json.Encoder); any change to the frame layout or a field's encoding
// shows up as a diff against it.
func transcript() []exchange {
	props := value.EncodeMap(value.Map{"age": value.Int(41), "name": value.String("ada")})
	since := value.EncodeMap(value.Map{"since": value.Int(2016)})
	ada := value.EncodeValue(value.String("ada"))
	return []exchange{
		{Request{Op: OpPing, Seq: 1}, []Response{{OK: true, Proto: 2, Seq: 1}}}, // recorded at generation 2
		{Request{Op: OpBegin, Isolation: "rc", Seq: 2}, []Response{{OK: true, Seq: 2}}},
		{Request{Op: OpCreateNode, Labels: []string{"Person", "Admin"}, Props: props, Seq: 3,
			Trace: &TraceContext{TraceID: "00f1", SpanID: "0a"}},
			[]Response{{OK: true, ID: 7, Seq: 3, TraceID: "00f1"}}},
		{Request{Op: OpCommit, Seq: 4, DeadlineMS: 250}, []Response{{OK: true, LSN: 4096, Seq: 4}}},
		{Request{Op: OpAbort, Seq: 5}, []Response{{Error: "server: no open transaction", Seq: 5}}},
		{Request{Op: OpGetNode, ID: 7, WaitLSN: 4096, Seq: 6},
			[]Response{{OK: true, Node: &NodeJSON{ID: 7, Labels: []string{"Admin", "Person"}, Props: props}, Seq: 6}}},
		{Request{Op: OpSetNodeProp, ID: 7, Key: "score", Value: value.EncodeValue(value.Float(1.5)), Seq: 7}, []Response{{OK: true, LSN: 4200, Seq: 7}}},
		{Request{Op: OpAddLabel, ID: 7, Label: "Vip", Seq: 8}, []Response{{OK: true, LSN: 4300, Seq: 8}}},
		{Request{Op: OpRemoveLabel, ID: 7, Label: "Vip", Seq: 9}, []Response{{OK: true, LSN: 4400, Seq: 9}}},
		{Request{Op: OpCreateRel, Type: "KNOWS", Start: 7, End: 9, Props: since, Seq: 10},
			[]Response{{OK: true, ID: 3, LSN: 4500, Seq: 10}}},
		{Request{Op: OpGetRel, ID: 3, Seq: 11},
			[]Response{{OK: true, Rel: &RelJSON{ID: 3, Type: "KNOWS", Start: 7, End: 9, Props: since}, Seq: 11}}},
		{Request{Op: OpSetRelProp, ID: 3, Key: "w", Value: value.EncodeValue(value.Bytes([]byte{0, 0xff})), Seq: 12}, []Response{{OK: true, LSN: 4600, Seq: 12}}},
		{Request{Op: OpRels, ID: 7, Dir: "out", Types: []string{"KNOWS"}, Seq: 13},
			[]Response{{OK: true, Rels: []RelJSON{{ID: 3, Type: "KNOWS", Start: 7, End: 9}}, Seq: 13}}},
		{Request{Op: OpNeighbors, ID: 7, Dir: "both", Seq: 14}, []Response{{OK: true, IDs: []uint64{9}, Seq: 14}}},
		{Request{Op: OpDeleteRel, ID: 3, Seq: 18}, []Response{{OK: true, LSN: 4700, Seq: 18}}},
		{Request{Op: OpDeleteNode, ID: 9, Seq: 19}, []Response{{OK: true, LSN: 4800, Seq: 19}}},
		{Request{Op: OpDetachDelete, ID: 7, Seq: 20}, []Response{{OK: true, LSN: 4900, Seq: 20}}},
		{Request{Op: OpStats, Seq: 21}, []Response{{OK: true, Info: raw(`{"Commits":12}`), Seq: 21}}},
		{Request{Op: OpGC, Seq: 22}, []Response{{OK: true, Info: raw(`{"Collected":3}`), Seq: 22}}},
		{Request{Op: OpCheckpoint, Seq: 23}, []Response{{OK: true, Seq: 23}}},
		{Request{Op: OpReplStatus, Seq: 24}, []Response{{OK: true, Info: raw(`{"role":"primary","epoch":2}`), Seq: 24}}},
		{Request{Op: OpClusterStatus, Seq: 25}, []Response{{OK: true, Info: raw(`{"node_id":1,"role":"primary","epoch":2,"durable_lsn":4900,"applied_lsn":4900}`), Seq: 25}}},
		{Request{Op: OpPromote, Addr: "127.0.0.1:7476", Seq: 26}, []Response{{OK: true, Info: raw(`{"role":"primary","epoch":3}`), Seq: 26}}},

		// A batch with back references, answered per op; then one that fails.
		{Request{Op: OpBatch, Seq: 27, Batch: []Request{
			{Op: OpCreateNode, Labels: []string{"A"}},
			{Op: OpCreateNode, Labels: []string{"B"}},
			{Op: OpCreateRel, Type: "E", StartRef: intp(0), EndRef: intp(1)},
			{Op: OpSetNodeProp, IDRef: intp(0), Key: "k", Value: value.EncodeValue(value.Bool(true))},
			{Op: OpGetNode, ID: 7},
		}}, []Response{{OK: true, LSN: 5100, Seq: 27, Results: []Response{
			{OK: true, ID: 10}, {OK: true, ID: 11}, {OK: true, ID: 4}, {OK: true},
			{OK: true, Node: &NodeJSON{ID: 7}},
		}}}},
		{Request{Op: OpBatch, Seq: 28, Batch: []Request{{Op: OpPing}, {Op: OpDeleteNode, ID: 10}}},
			[]Response{{Error: "server: batch aborted at op 1: core: node still has relationships", Code: CodeHasRels, FailedOp: intp(1), Seq: 28}}},

		// A query: two chunk frames, then the final one.
		{Request{Op: OpQuery, Seq: 29, Plan: &QueryPlan{
			Seed: QuerySeed{IDs: []uint64{7}},
			Stages: []QueryStage{
				{Op: StageKHop, Dir: "out", Depth: 2, Types: []string{"KNOWS"}},
				{Op: StageFilterEq, Key: "name", Value: ada},
				{Op: StageLimit, N: 5},
			}}},
			[]Response{
				{OK: true, More: true, Seq: 29, Rows: []QueryRow{{ID: 7}, {ID: 9, Depth: 1}}},
				{OK: true, More: true, Seq: 29, Rows: []QueryRow{{ID: 12, Depth: 2, Rel: 4}}},
				{OK: true, Seq: 29, Rows: []QueryRow{{Score: 0.25, Count: 3}}},
			}},

		// Two-phase commit control ops.
		{Request{Op: OpPrepare, TxnID: 281474976710657, CoordPart: 1, ValidateNodes: []uint64{8}, Seq: 30,
			Batch: []Request{{Op: OpSetNodeProp, ID: 6, Key: "bal", Value: value.EncodeValue(value.Int(60))}}},
			[]Response{{OK: true, LSN: 5200, Seq: 30, Results: []Response{{OK: true}}}}},
		{Request{Op: OpDecide, TxnID: 281474976710657, Commit: boolp(true), Participants: []uint32{0}, Seq: 31},
			[]Response{{OK: true, LSN: 5300, Seq: 31}}},
		{Request{Op: OpDecide, TxnID: 281474976710658, Commit: boolp(false), Seq: 32}, []Response{{OK: true, State: "aborted", Seq: 32}}},
		{Request{Op: OpTxnStatus, TxnID: 281474976710657, Seq: 33}, []Response{{OK: true, State: "committed", Seq: 33}}},

		// Error frames of the server's own conditions.
		{Request{Op: OpGetNode, ID: 7, WaitLSN: 1 << 40, DeadlineMS: 5, Seq: 34},
			[]Response{{Error: "server: deadline exceeded", Code: CodeDeadline, Seq: 34}}},
		{Request{Op: OpGetNode, ID: 7, WaitLSN: 1 << 40, Seq: 35},
			[]Response{{Error: "server: shutting down", Code: CodeUnavailable, Seq: 35}}},
		{Request{Op: OpPing, Seq: 36},
			[]Response{{Error: "server: overloaded: admission budget exhausted", Code: CodeOverloaded, Seq: 36}}},

		// Generation 3, appended: a session transaction's first and last
		// frames carry its begin and its commit (the commit's LSN is the
		// batch's), and a commit anywhere else is refused whole.
		{Request{Op: OpPing, Seq: 37}, []Response{{OK: true, Proto: 4, Seq: 37}}}, // recorded at generation 4
		{Request{Op: OpBatch, Seq: 38, Batch: []Request{{Op: OpBegin}, {Op: OpGetNode, ID: 7}}},
			[]Response{{OK: true, Seq: 38, Results: []Response{{OK: true}, {OK: true, Node: &NodeJSON{ID: 7}}}}}},
		{Request{Op: OpBatch, Seq: 39, Batch: []Request{
			{Op: OpSetNodeProp, ID: 7, Key: "score", Value: value.EncodeValue(value.Float(2.5))}, {Op: OpCommit}}},
			[]Response{{OK: true, LSN: 5400, Seq: 39, Results: []Response{{OK: true}, {OK: true, LSN: 5400}}}}},
		{Request{Op: OpBatch, Seq: 40, Batch: []Request{{Op: OpCommit}, {Op: OpGetNode, ID: 7}}},
			[]Response{{Error: "wire: commit may only be a batch's last sub-op (found at 0 of 2)", Seq: 40}}},
	}
}

// TestTranscriptBytes pins the frame layout: the transcript written
// through Conn is the golden file byte for byte, and the golden file read
// through Conn is the transcript value for value, every frame's size
// accounted for.
func TestTranscriptBytes(t *testing.T) {
	const path = "testdata/transcript.golden"
	var buf bytes.Buffer
	c := NewConn(&buf, 0)
	for _, x := range transcript() {
		if err := c.WriteRequest(&x.req); err != nil {
			t.Fatal(err)
		}
		for i := range x.resps {
			if err := c.WriteResponse(&x.resps[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		got, want := bytes.Split(buf.Bytes(), []byte{'\n'}), bytes.Split(golden, []byte{'\n'})
		for i := 0; i < len(got) && i < len(want); i++ {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("frame %d differs from the golden transcript:\n got %s\nwant %s", i, got[i], want[i])
			}
		}
		t.Fatalf("transcript has %d frames, golden %d", len(got)-1, len(want)-1)
	}

	rd := NewConn(bytes.NewBuffer(golden), 1<<20)
	var total int64
	for i, x := range transcript() {
		var req Request
		n, err := rd.ReadRequest(&req)
		if err != nil {
			t.Fatalf("exchange %d: read request: %v", i, err)
		}
		total += n
		if !reflect.DeepEqual(req, x.req) {
			t.Fatalf("exchange %d: request decoded as %+v, want %+v", i, req, x.req)
		}
		for j := range x.resps {
			var resp Response
			if err := rd.ReadResponse(&resp); err != nil {
				t.Fatalf("exchange %d: read response %d: %v", i, j, err)
			}
			if !reflect.DeepEqual(resp, x.resps[j]) {
				t.Fatalf("exchange %d: response %d decoded as %+v, want %+v", i, j, resp, x.resps[j])
			}
		}
	}
	// Request frame sizes are the admission charge: a frame is its JSON
	// value plus the newline that ended the frame before it.
	var reqBytes int64
	for _, x := range transcript() {
		b, _ := json.Marshal(&x.req)
		reqBytes += int64(len(b)) + 1
	}
	if total != reqBytes-1 {
		t.Fatalf("request frames sized %d bytes in total, want %d", total, reqBytes-1)
	}
}

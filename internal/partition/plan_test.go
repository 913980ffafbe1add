package partition

import (
	"strings"
	"testing"

	"neograph/internal/wire"
)

func TestParsePeers(t *testing.T) {
	pm, err := ParsePeers("1=c:1,d:2; 0=a:1,b:2")
	if err != nil {
		t.Fatal(err)
	}
	if pm.Count != 2 || pm.Version != 1 {
		t.Fatalf("count=%d version=%d", pm.Count, pm.Version)
	}
	// Sorted by ID regardless of spec order.
	if pm.Groups[0].ID != 0 || pm.Groups[1].ID != 1 {
		t.Fatalf("group order: %+v", pm.Groups)
	}
	if len(pm.Groups[0].Addrs) != 2 || pm.Groups[0].Addrs[0] != "a:1" {
		t.Fatalf("group 0 addrs: %v", pm.Groups[0].Addrs)
	}

	for _, bad := range []string{
		"",             // empty
		"0=a:1;2=b:1",  // gap: no partition 1
		"0=a:1;0=b:1",  // duplicate
		"0=",           // no addrs
		"x=a:1",        // bad id
		"just-an-addr", // no '='
	} {
		if _, err := ParsePeers(bad); err == nil {
			t.Errorf("ParsePeers(%q): want error", bad)
		}
	}
}

func TestTopologyPartitionOfAndAdopt(t *testing.T) {
	pm, _ := ParsePeers("0=a:1;1=b:1;2=c:1")
	topo := NewTopology(pm)
	if topo.Count() != 3 {
		t.Fatalf("count=%d", topo.Count())
	}
	for id := uint64(0); id < 10; id++ {
		if got := topo.PartitionOf(id); got != uint32(id%3) {
			t.Fatalf("PartitionOf(%d)=%d", id, got)
		}
	}
	if a := topo.Addrs(1); len(a) != 1 || a[0] != "b:1" {
		t.Fatalf("Addrs(1)=%v", a)
	}
	if topo.Addrs(9) != nil {
		t.Fatal("Addrs of unknown partition should be nil")
	}

	// Adopt: same/lower version ignored, higher version wins.
	stale := topo.Map()
	if topo.Adopt(&stale) {
		t.Fatal("adopted a same-version map")
	}
	newer, _ := ParsePeers("0=x:1;1=y:1;2=z:1")
	newer.Version = 7
	if !topo.Adopt(&newer) {
		t.Fatal("refused a newer map")
	}
	if a := topo.Addrs(0); a[0] != "x:1" {
		t.Fatalf("after adopt Addrs(0)=%v", a)
	}
	// Mutating the adopted source must not leak into the topology.
	newer.Groups[0].Addrs[0] = "mutated"
	if a := topo.Addrs(0); a[0] != "x:1" {
		t.Fatal("Adopt did not deep-copy")
	}
}

func ref(i int) *int { return &i }

func TestPlanBatchSinglePartitionRefsStayLocal(t *testing.T) {
	// node, node, rel between them — all creations land on the
	// coordinator, refs become local indices.
	batch := []wire.Request{
		{Op: wire.OpCreateNode},
		{Op: wire.OpCreateNode},
		{Op: wire.OpCreateRel, Type: "KNOWS", StartRef: ref(0), EndRef: ref(1)},
	}
	p, err := planBatch(batch, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.sub) != 1 || len(p.sub[1]) != 3 {
		t.Fatalf("sub: %+v", p.sub)
	}
	if len(p.subs) != 0 {
		t.Fatalf("unexpected pending subs: %+v", p.subs)
	}
	rel := p.sub[1][2]
	if rel.StartRef == nil || *rel.StartRef != 0 || rel.EndRef == nil || *rel.EndRef != 1 {
		t.Fatalf("local refs not rewritten: %+v", rel)
	}
	if len(p.order) != 1 || p.order[0] != 1 {
		t.Fatalf("order: %v", p.order)
	}
}

func TestPlanBatchCrossPartitionEdge(t *testing.T) {
	// Node created on coordinator (partition 0 of 2); edge from it to a
	// pre-existing node 7 (partition 1): edge stays with its start
	// partition, node 7 goes on partition 1's validate list.
	batch := []wire.Request{
		{Op: wire.OpCreateNode},
		{Op: wire.OpCreateRel, Type: "KNOWS", StartRef: ref(0), End: 7},
	}
	p, err := planBatch(batch, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.sub[0]) != 2 {
		t.Fatalf("coordinator sub: %+v", p.sub[0])
	}
	if got := p.validate[1]; len(got) != 1 || got[0] != 7 {
		t.Fatalf("validate[1]=%v", got)
	}
	// Partition 1 participates (validate-only, empty sub-batch is fine).
	found := false
	for _, part := range p.order {
		if part == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("partition 1 not in order %v", p.order)
	}
}

func TestPlanBatchCrossPartitionRefSubstitution(t *testing.T) {
	// Update on partition 1's node 3, node created on coordinator 0,
	// edge anchored to partition 1's node referencing the new node:
	// partition 0 must prepare before partition 1, and the edge's End
	// ref becomes a pending substitution.
	batch := []wire.Request{
		{Op: wire.OpCreateNode},
		{Op: wire.OpCreateRel, Type: "KNOWS", Start: 3, EndRef: ref(0)},
	}
	p, err := planBatch(batch, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.subs) != 1 {
		t.Fatalf("pending subs: %+v", p.subs)
	}
	s := p.subs[0]
	if s.part != 1 || s.localIdx != 0 || s.field != fieldEnd || s.target != 0 {
		t.Fatalf("sub: %+v", s)
	}
	// The cleared ref must not survive in partition 1's sub-batch.
	if p.sub[1][0].EndRef != nil {
		t.Fatal("cross-partition ref not cleared")
	}
	// 0 before 1 in prepare order.
	if len(p.order) != 2 || p.order[0] != 0 || p.order[1] != 1 {
		t.Fatalf("order: %v", p.order)
	}
}

func TestPlanBatchRejectsCycles(t *testing.T) {
	// Circular: partition 0's op references partition 1's creation and
	// vice versa. create_rel anchored by Start ID, End by ref.
	batch := []wire.Request{
		{Op: wire.OpCreateNode}, // coordinator (0)
		{Op: wire.OpCreateRel, Type: "A", Start: 1, EndRef: ref(0)}, // partition 1, needs 0
		{Op: wire.OpCreateRel, Type: "B", Start: 0, EndRef: ref(1)}, // partition 0, needs 1
	}
	if _, err := planBatch(batch, 0, 2); err == nil || !strings.Contains(err.Error(), "circular") {
		t.Fatalf("cycle: %v", err)
	}
}

func TestCrossPartition(t *testing.T) {
	cases := []struct {
		name  string
		batch []wire.Request
		self  uint32
		count int
		want  bool
	}{
		{"unpartitioned", []wire.Request{{Op: wire.OpGetNode, ID: 5}}, 0, 1, false},
		{"creates only", []wire.Request{{Op: wire.OpCreateNode}, {Op: wire.OpCreateNode}}, 1, 4, false},
		{"local id", []wire.Request{{Op: wire.OpGetNode, ID: 4}}, 0, 2, false},
		{"remote id", []wire.Request{{Op: wire.OpGetNode, ID: 5}}, 0, 2, true},
		{"rel local both", []wire.Request{{Op: wire.OpCreateRel, Start: 2, End: 4}}, 0, 2, false},
		{"rel remote end", []wire.Request{{Op: wire.OpCreateRel, Start: 2, End: 5}}, 0, 2, true},
		{"rel by refs", []wire.Request{
			{Op: wire.OpCreateNode}, {Op: wire.OpCreateNode},
			{Op: wire.OpCreateRel, StartRef: ref(0), EndRef: ref(1)},
		}, 0, 2, false},
	}
	for _, c := range cases {
		if got := CrossPartition(c.batch, c.self, c.count); got != c.want {
			t.Errorf("%s: CrossPartition=%v want %v", c.name, got, c.want)
		}
	}
}

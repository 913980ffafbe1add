package wire

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// opConstants parses this package's sources for its Op* string constants:
// name -> op string.
func opConstants(t *testing.T) map[string]string {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	ops := make(map[string]string)
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, name := range vs.Names {
					if !strings.HasPrefix(name.Name, "Op") || i >= len(vs.Values) {
						continue
					}
					if lit, ok := vs.Values[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
						ops[name.Name], _ = strconv.Unquote(lit.Value)
					}
				}
			}
		}
	}
	return ops
}

// TestEveryOpHasAShape: the shape table is keyed by exactly the Op*
// constants — an op added without deciding its write / batchable / anchor
// shape fails here, not in a partition's routing.
func TestEveryOpHasAShape(t *testing.T) {
	ops := opConstants(t)
	if len(ops) < 28 {
		t.Fatalf("parsed only %d Op* constants: %v", len(ops), ops)
	}
	known := make(map[string]bool)
	for name, op := range ops {
		known[op] = true
		if _, ok := shapes[op]; !ok {
			t.Errorf("%s (%q) has no entry in the shape table", name, op)
		}
	}
	for op := range shapes {
		if !known[op] {
			t.Errorf("shape table entry %q is not an Op* constant", op)
		}
	}
	// The golden transcript (which the server's dispatch test replays)
	// exercises every one of them.
	for _, x := range transcript() {
		delete(known, x.req.Op)
	}
	for op := range known {
		t.Errorf("op %q is missing from the golden transcript", op)
	}
}

// TestShapeTableDerivations pins the op sets the table replaced: the
// server's write set, the batch whitelist and the planner's scan set, as
// they were when each was a hand-kept map; and the anchors the four
// ownership switches spelled.
func TestShapeTableDerivations(t *testing.T) {
	collect := func(pick func(Shape) bool) []string {
		var out []string
		for op, sh := range shapes {
			if pick(sh) {
				out = append(out, op)
			}
		}
		sort.Strings(out)
		return out
	}
	sorted := func(ops ...string) []string { sort.Strings(ops); return ops }
	eq := func(what string, got, want []string) {
		t.Helper()
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("%s ops = %v, want %v", what, got, want)
		}
	}
	eq("write", collect(func(s Shape) bool { return s.Write }), sorted(
		OpCreateNode, OpSetNodeProp, OpAddLabel, OpRemoveLabel, OpDeleteNode,
		OpDetachDelete, OpCreateRel, OpSetRelProp, OpDeleteRel))
	eq("batchable", collect(func(s Shape) bool { return s.Batchable }), sorted(
		OpPing, OpCreateNode, OpGetNode, OpSetNodeProp, OpAddLabel, OpRemoveLabel,
		OpDeleteNode, OpDetachDelete, OpCreateRel, OpGetRel, OpSetRelProp,
		OpDeleteRel, OpRels, OpNeighbors))
	eq("node-anchored", collect(func(s Shape) bool { return s.Anchor == AnchorNode }), sorted(
		OpGetNode, OpSetNodeProp, OpAddLabel, OpRemoveLabel, OpDeleteNode, OpDetachDelete, OpRels, OpNeighbors))
	eq("rel-anchored", collect(func(s Shape) bool { return s.Anchor == AnchorRel }), sorted(OpGetRel, OpSetRelProp, OpDeleteRel))
	eq("ends-anchored", collect(func(s Shape) bool { return s.Anchor == AnchorEnds }), sorted(OpCreateRel))
	for op, sh := range shapes {
		if sh.Anchor != AnchorNone && !sh.Batchable {
			t.Errorf("%q is anchored but not batchable", op)
		}
	}
}

// TestPlace: placement reads the right fields per anchor, explicit IDs
// and back references alike.
func TestPlace(t *testing.T) {
	one, two := 1, 2
	for _, tc := range []struct {
		name      string
		req       Request
		anchor    Anchor
		home, far EntityRef
	}{
		{"unanchored", Request{Op: OpCreateNode, ID: 9, IDRef: &one}, AnchorNone, EntityRef{}, EntityRef{}},
		{"node by id", Request{Op: OpSetNodeProp, ID: 9}, AnchorNode, EntityRef{ID: 9}, EntityRef{}},
		{"node by ref", Request{Op: OpAddLabel, IDRef: &one}, AnchorNode, EntityRef{Back: &one}, EntityRef{}},
		{"rel by id", Request{Op: OpDeleteRel, ID: 4}, AnchorRel, EntityRef{ID: 4}, EntityRef{}},
		{"ends by id", Request{Op: OpCreateRel, Start: 3, End: 8, ID: 99}, AnchorEnds, EntityRef{ID: 3}, EntityRef{ID: 8}},
		{"ends by ref", Request{Op: OpCreateRel, StartRef: &one, EndRef: &two}, AnchorEnds, EntityRef{Back: &one}, EntityRef{Back: &two}},
		{"unknown op", Request{Op: "frobnicate", ID: 9}, AnchorNone, EntityRef{}, EntityRef{}},
	} {
		pl := Place(&tc.req)
		if pl.Anchor != tc.anchor || pl.Home != tc.home || pl.Far != tc.far {
			t.Errorf("%s: Place = anchor %d home %+v far %+v, want %d %+v %+v",
				tc.name, pl.Anchor, pl.Home, pl.Far, tc.anchor, tc.home, tc.far)
		}
	}
	if OwnerOf(7, 0) != 0 || OwnerOf(7, 1) != 0 || OwnerOf(7, 2) != 1 || OwnerOf(8, 4) != 0 {
		t.Error("OwnerOf is not id % count with unpartitioned mapping to 0")
	}
}

// TestErrorCodeTable: every engine sentinel has exactly one code, both
// directions agree, and wrapping does not hide a sentinel.
func TestErrorCodeTable(t *testing.T) {
	seen := make(map[string]bool)
	for _, ec := range engineCodes {
		if ec.code == "" || seen[ec.code] {
			t.Errorf("code %q empty or used twice", ec.code)
		}
		seen[ec.code] = true
		if got := Sentinel(ec.code); got != ec.err {
			t.Errorf("Sentinel(%q) = %v, want %v", ec.code, got, ec.err)
		}
		if got := CodeOf(wrapped{ec.err}); got != ec.code {
			t.Errorf("CodeOf(wrapped %v) = %q, want %q", ec.err, got, ec.code)
		}
	}
	for _, c := range []string{"", CodeDeadline, CodeUnavailable, CodeOverloaded, "nonsense"} {
		if Sentinel(c) != nil {
			t.Errorf("Sentinel(%q) is an engine sentinel", c)
		}
	}
	if CodeOf(wrapped{nil}) != "" {
		t.Error("an error wrapping no sentinel has a code")
	}
}

type wrapped struct{ err error }

func (w wrapped) Error() string { return "wrapped" }
func (w wrapped) Unwrap() error { return w.err }

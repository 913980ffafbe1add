package neograph

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
)

// every holds a value of every kind, and the edges of each.
var every = Props{
	"name":      String("ada"),
	"small":     Int(math.MinInt64),
	"big":       Int(math.MaxInt64),
	"2^53+1":    Int(1<<53 + 1),
	"nan":       Float(math.Float64frombits(0x7ff8000000000001)),
	"-0":        Float(math.Copysign(0, -1)),
	"+inf":      Float(math.Inf(1)),
	"-inf":      Float(math.Inf(-1)),
	"score":     Float(2.5),
	"not utf-8": String("\xff\xfe"),
	"nil bytes": Bytes(nil),
	"raw":       Bytes([]byte{0, 255}),
	"tags":      List(String("x"), Int(1), List(Null, Bool(false))),
}

func TestExportImportRoundTrip(t *testing.T) {
	src := memDB(t)
	var a, b, c NodeID
	err := src.Update(0, func(tx *Tx) error {
		var err error
		a, err = tx.CreateNode([]string{"Person"}, every)
		if err != nil {
			return err
		}
		b, _ = tx.CreateNode([]string{"Person", "Admin"}, Props{})
		c, _ = tx.CreateNode(nil, Props{"k": Bool(true)})
		tx.CreateRel("KNOWS", a, b, Props{"since": Int(2016)})
		tx.CreateRel("MANAGES", b, c, nil)
		tx.CreateRel("SELF", c, c, nil)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	err = src.View(func(tx *Tx) error { return Export(tx, &buf) })
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, fmt.Sprintf(`{"kind":"node","id":%d,`, b)) && strings.Contains(line, "props") {
			t.Errorf("a node without properties is dumped as %s", line)
		}
	}

	dst := memDB(t)
	stats, err := Import(dst, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Nodes != 3 || stats.Rels != 3 {
		t.Fatalf("stats = %+v", stats)
	}

	dst.View(func(tx *Tx) error {
		people, _ := tx.NodesByLabel("Person")
		if len(people) != 2 {
			t.Fatalf("people = %v", people)
		}
		adas, _ := tx.NodesByProperty("name", String("ada"))
		if len(adas) != 1 {
			t.Fatalf("adas = %v", adas)
		}
		n, _ := tx.GetNode(adas[0])
		if len(n.Props) != len(every) {
			t.Errorf("%d properties, want %d: %v", len(n.Props), len(every), n.Props)
		}
		for k, v := range every {
			if n.Props[k] != v {
				t.Errorf("%q = %v, want %v bit for bit", k, n.Props[k], v)
			}
		}
		// Topology: ada -KNOWS-> admin -MANAGES-> k.
		knows, _ := tx.Relationships(adas[0], Outgoing, "KNOWS")
		if len(knows) != 1 {
			t.Fatalf("knows = %v", knows)
		}
		if s, _ := knows[0].Props["since"].AsInt(); s != 2016 {
			t.Fatalf("rel props lost: %v", knows[0].Props)
		}
		if admin, _ := tx.GetNode(knows[0].End); len(admin.Props) != 0 {
			t.Errorf("an empty map imported as %v", admin.Props)
		}
		manages, _ := tx.Relationships(knows[0].End, Outgoing, "MANAGES")
		if len(manages) != 1 {
			t.Fatalf("manages = %v", manages)
		}
		self, _ := tx.Relationships(manages[0].End, Both, "SELF")
		if len(self) != 1 || self[0].Start != self[0].End {
			t.Fatalf("self loop lost: %v", self)
		}
		return nil
	})
}

func TestImportIntoNonEmptyDB(t *testing.T) {
	src := memDB(t)
	src.Update(0, func(tx *Tx) error {
		a, _ := tx.CreateNode([]string{"X"}, nil)
		b, _ := tx.CreateNode([]string{"X"}, nil)
		tx.CreateRel("E", a, b, nil)
		return nil
	})
	var buf bytes.Buffer
	src.View(func(tx *Tx) error { return Export(tx, &buf) })

	dst := memDB(t)
	// Pre-existing data occupies the low IDs the dump also uses.
	dst.Update(0, func(tx *Tx) error {
		for i := 0; i < 5; i++ {
			tx.CreateNode([]string{"Old"}, nil)
		}
		return nil
	})
	stats, err := Import(dst, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Nodes != 2 || stats.Rels != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	dst.View(func(tx *Tx) error {
		olds, _ := tx.NodesByLabel("Old")
		xs, _ := tx.NodesByLabel("X")
		if len(olds) != 5 || len(xs) != 2 {
			t.Fatalf("olds=%v xs=%v", olds, xs)
		}
		rels, _ := tx.Relationships(xs[0], Both)
		if len(rels) != 1 {
			t.Fatalf("imported topology broken: %v", rels)
		}
		return nil
	})
}

func TestImportErrors(t *testing.T) {
	db := memDB(t)
	if _, err := Import(db, strings.NewReader(`{"kind":"banana"}`)); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := Import(db, strings.NewReader(`{"kind":"rel","id":1,"type":"E","start":99,"end":98}`)); err == nil {
		t.Fatal("dangling rel accepted")
	}
	if _, err := Import(db, strings.NewReader(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
	// A line with tagged-object props, as dumps were written before the
	// props became the binary encoding, refuses the whole dump; so do
	// props that are not exactly one map's encoding.
	for _, dump := range []string{
		`{"kind":"node","id":1}` + "\n" + `{"kind":"node","id":2,"props":{"k":{"i":"1"}}}`,
		`{"kind":"node","id":1}` + "\n" + `{"kind":"node","id":2,"props":"AgFrAAFrAA=="}`,
	} {
		if _, err := Import(db, strings.NewReader(dump)); err == nil {
			t.Errorf("%s imported", dump)
		}
	}
	db.View(func(tx *Tx) error {
		if ids, _ := tx.AllNodes(); len(ids) != 0 {
			t.Errorf("a refused dump imported %v", ids)
		}
		return nil
	})
}

func TestExportConsistentUnderWriters(t *testing.T) {
	db := memDB(t)
	var ids []NodeID
	db.Update(0, func(tx *Tx) error {
		for i := 0; i < 50; i++ {
			id, _ := tx.CreateNode([]string{"N"}, Props{"v": Int(0)})
			ids = append(ids, id)
		}
		return nil
	})
	// Export inside a transaction while a writer mutates mid-export: the
	// dump must reflect the snapshot (all v identical), not a torn mix.
	tx := db.Begin()
	defer tx.Abort()
	db.Update(0, func(w *Tx) error {
		for _, id := range ids {
			if err := w.SetNodeProp(id, "v", Int(42)); err != nil {
				return err
			}
		}
		return nil
	})
	var buf bytes.Buffer
	if err := Export(tx, &buf); err != nil {
		t.Fatal(err)
	}
	dst := memDB(t)
	if _, err := Import(dst, &buf); err != nil {
		t.Fatal(err)
	}
	dst.View(func(tx *Tx) error {
		ids, _ := tx.NodesByProperty("v", Int(0))
		if len(ids) != 50 {
			t.Fatalf("%d of 50 nodes dumped with the snapshot's v", len(ids))
		}
		return nil
	})
}

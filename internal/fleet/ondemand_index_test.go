package fleet_test

import (
	"fmt"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"neograph"
	"neograph/internal/fleet"
	"neograph/internal/metrics"
	"neograph/internal/server"
)

// commitOn runs fn in a transaction on db and returns the commit's log
// position, the token a replica is waited on with.
func commitOn(t *testing.T, db *neograph.DB, fn func(tx *neograph.Tx) error) uint64 {
	t.Helper()
	tx := db.Begin()
	if err := fn(tx); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return tx.CommitLSN()
}

func nodesBy(t *testing.T, db *neograph.DB, key string, val neograph.Value) []neograph.NodeID {
	t.Helper()
	var out []neograph.NodeID
	if err := db.View(func(tx *neograph.Tx) (err error) {
		out, err = tx.NodesByProperty(key, val)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// builtKeys lists the property keys db's engine holds postings for.
func builtKeys(db *neograph.DB) []string {
	var out []string
	for _, b := range db.Engine().IndexBuilds() {
		out = append(out, b.Index+":"+b.Key)
	}
	return out
}

// TestReplicaBuildsPostingsFromReplicatedState: no engine has property
// postings until a lookup names the key, and every engine builds its own
// from what it holds — a replica from the state the stream gave it, the
// same node again after its promotion (same engine: still built, now
// maintained by its own commits), and again after a crash and reopen (a
// new engine: built from the recovered state at the first lookup).
func TestReplicaBuildsPostingsFromReplicatedState(t *testing.T) {
	f, err := fleet.Start(fleet.Spec{Replicas: 1, DB: neograph.Options{Dir: t.TempDir(), SyncReplicas: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	primary, replica := f.Groups[0][0], f.Groups[0][1]

	var ids []neograph.NodeID
	var token uint64
	for i := 0; i < 50; i++ {
		token = commitOn(t, primary.DB, func(tx *neograph.Tx) error {
			id, err := tx.CreateNode([]string{"Person"}, neograph.Props{"team": neograph.Int(int64(i % 5)), "n": neograph.Int(int64(i))})
			ids = append(ids, id)
			return err
		})
	}
	// One of team 2 leaves it, one is deleted: versions for the build to
	// read past.
	commitOn(t, primary.DB, func(tx *neograph.Tx) error { return tx.SetNodeProp(ids[2], "team", neograph.Int(9)) })
	token = commitOn(t, primary.DB, func(tx *neograph.Tx) error { return tx.DeleteNode(ids[7]) })
	if err := replica.DB.WaitApplied(token, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	team2 := func(ids []neograph.NodeID, also ...neograph.NodeID) []neograph.NodeID {
		var want []neograph.NodeID
		for i, id := range ids {
			if i%5 == 2 && i != 2 && i != 7 {
				want = append(want, id)
			}
		}
		return append(want, also...)
	}

	if got := builtKeys(replica.DB); len(got) != 0 {
		t.Fatalf("the replica holds postings nobody asked for: %v", got)
	}
	if got, want := nodesBy(t, replica.DB, "team", neograph.Int(2)), team2(ids); !slices.Equal(got, want) {
		t.Fatalf("replica: team 2 = %v, want %v", got, want)
	}
	if got := builtKeys(replica.DB); !slices.Equal(got, []string{"node_prop:team"}) {
		t.Fatalf("the replica built %v, want team alone", got)
	}
	if got := builtKeys(primary.DB); len(got) != 0 {
		t.Fatalf("a lookup on the replica built %v on the primary", got)
	}

	// The replica maintains what it built from the stream.
	var joined neograph.NodeID
	token = commitOn(t, primary.DB, func(tx *neograph.Tx) (err error) {
		joined, err = tx.CreateNode(nil, neograph.Props{"team": neograph.Int(2)})
		return err
	})
	if err := replica.DB.WaitApplied(token, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if got, want := nodesBy(t, replica.DB, "team", neograph.Int(2)), team2(ids, joined); !slices.Equal(got, want) {
		t.Fatalf("replica after one more commit: team 2 = %v, want %v", got, want)
	}

	// Promotion: the same engine, writable now.
	if err := primary.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := replica.DB.Promote(""); err != nil {
		t.Fatal(err)
	}
	var hired neograph.NodeID
	commitOn(t, replica.DB, func(tx *neograph.Tx) (err error) {
		hired, err = tx.CreateNode(nil, neograph.Props{"team": neograph.Int(2)})
		return err
	})
	want := team2(ids, joined, hired)
	if got := nodesBy(t, replica.DB, "team", neograph.Int(2)); !slices.Equal(got, want) {
		t.Fatalf("promoted: team 2 = %v, want %v", got, want)
	}
	if got := builtKeys(replica.DB); !slices.Equal(got, []string{"node_prop:team"}) {
		t.Fatalf("promoted: built %v, want team alone, once", got)
	}

	// Crash and reopen: a new engine, nothing built until asked.
	if err := replica.Crash(); err != nil {
		t.Fatal(err)
	}
	cfg := replica.Config
	cfg.DB.ReplicaOf = "" // it was promoted: it restarts as what it became
	reopened, err := fleet.StartNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.Groups[0][1] = reopened
	if got := builtKeys(reopened.DB); len(got) != 0 {
		t.Fatalf("reopened: holds postings nobody asked for: %v", got)
	}
	if got := nodesBy(t, reopened.DB, "team", neograph.Int(2)); !slices.Equal(got, want) {
		t.Fatalf("reopened: team 2 = %v, want %v", got, want)
	}
	if got := nodesBy(t, reopened.DB, "n", neograph.Int(13)); !slices.Equal(got, []neograph.NodeID{ids[13]}) {
		t.Fatalf("reopened: n = 13 is %v, want node %d", got, ids[13])
	}
	if got := builtKeys(reopened.DB); !slices.Equal(got, []string{"node_prop:team", "node_prop:n"}) {
		t.Fatalf("reopened: built %v, want team then n", got)
	}
}

// scrape renders reg and returns the value of the series whose line
// starts with name (labels included).
func scrape(t *testing.T, reg *metrics.Registry, name string) float64 {
	t.Helper()
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\S+)$`).FindStringSubmatch(b.String())
	if m == nil {
		t.Fatalf("no series %s in:\n%s", name, b.String())
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestMetricsFollowTheEngineAcrossReseed: a re-seed closes the node's
// engine and opens another over the fetched snapshot. /metrics must read
// the one that is running: RegisterDBMetrics used to bind most series to
// the engine it was handed, and a re-seeded replica reported a watermark,
// index sizes and cache counters that never moved again.
func TestMetricsFollowTheEngineAcrossReseed(t *testing.T) {
	regs := map[int]*metrics.Registry{}
	f, err := fleet.Start(fleet.Spec{
		Replicas: 1,
		DB:       neograph.Options{Dir: t.TempDir(), SyncReplicas: 1},
		Each: func(_, member int, cfg *fleet.Config) {
			regs[member] = metrics.NewRegistry()
			cfg.Server = server.Config{Metrics: regs[member]}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	primary, replica, reg := f.Groups[0][0], f.Groups[0][1], regs[1]

	write := func(n int) {
		t.Helper()
		var token uint64
		for i := 0; i < n; i++ {
			token = commitOn(t, primary.DB, func(tx *neograph.Tx) error {
				_, err := tx.CreateNode([]string{"Person"}, neograph.Props{"name": neograph.String(fmt.Sprint("p", i))})
				return err
			})
		}
		if err := replica.DB.WaitApplied(token, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	write(10)
	nodesBy(t, replica.DB, "name", neograph.String("p3")) // the replica materialises `name`

	before := replica.DB.Engine()
	if err := replica.DB.ReseedFrom(primary.Config.DB.ReplicationAddr); err != nil {
		t.Fatal(err)
	}
	if replica.DB.Engine() == before {
		t.Fatal("the re-seed kept the engine")
	}
	if got := scrape(t, reg, `neograph_index_materialised_keys{index="node_prop"}`); got != 0 {
		t.Errorf("materialised keys after the re-seed = %v: the new engine has none yet", got)
	}
	watermark := scrape(t, reg, "neograph_oracle_watermark")
	labelEntries := scrape(t, reg, `neograph_index_entries{index="label"}`)
	if labelEntries != 10 {
		t.Errorf("label entries after the re-seed = %v, want the 10 people", labelEntries)
	}

	write(5)
	nodesBy(t, replica.DB, "name", neograph.String("p3"))
	for name, want := range map[string]float64{
		"neograph_oracle_watermark":                             watermark + 5,
		`neograph_index_entries{index="label"}`:                 labelEntries + 5,
		`neograph_index_entries{index="node_prop"}`:             15,
		`neograph_index_materialised_keys{index="node_prop"}`:   1,
		`neograph_index_materialised_keys{index="rel_prop"}`:    0,
		`neograph_index_builds_total{index="node_prop"}`:        1,
		`neograph_index_build_seconds_count{index="node_prop"}`: 1,
		"neograph_checkpoint_failures_total":                    0,
	} {
		if got := scrape(t, reg, name); got != want {
			t.Errorf("%s = %v after 5 more commits reached the re-seeded replica, want %v", name, got, want)
		}
	}
	if age := scrape(t, reg, "neograph_last_checkpoint_age_seconds"); age <= 0 || age > 60 {
		t.Errorf("last checkpoint age = %v s on an engine opened moments ago", age)
	}
}

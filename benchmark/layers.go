package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"neograph"
	"neograph/client"
	"neograph/internal/index"
	"neograph/internal/lock"
	"neograph/internal/mvcc"
	"neograph/internal/pagecache"
	"neograph/internal/query"
	"neograph/internal/store"
	"neograph/internal/value"
	"neograph/internal/wal"
	"neograph/internal/wire"
	"neograph/internal/workload"
)

// perLayer lists every per-layer metric with its unit. A traced run
// reports all of them on every workload; a layer the workload does not
// use reports 0 (its probe makes no call).
var perLayer = []struct{ name, unit string }{
	{"client.roundtrip_self_us", "us"}, {"client.pool_route_ns", "ns"}, {"client.allocs_per_op", "count"},
	{"wire.req_encode_ns", "ns"}, {"wire.req_decode_ns", "ns"}, {"wire.resp_encode_ns", "ns"}, {"wire.resp_decode_ns", "ns"},
	{"wire.chunk_encode_ns", "ns"}, {"wire.bytes_per_op", "B"}, {"wire.allocs_per_op", "count"},
	{"value.encode_map_ns", "ns"}, {"value.decode_map_ns", "ns"},
	{"server.residual_us", "us"}, {"server.rejected_frac", "frac"}, {"server.inflight_peak", "count"},
	{"core.begin_ns", "ns"}, {"core.getnode_ns", "ns"}, {"core.neighbors_ns_per_edge", "ns"}, {"core.commit_self_us", "us"},
	{"core.conflict_retry_frac", "frac"}, {"core.gc_collected_per_s", "1/s"}, {"core.versions_per_entity", "count"},
	{"mvcc.oracle_begin_finish_ns", "ns"}, {"mvcc.chain_visible_ns", "ns"}, {"mvcc.watermark_lag_p99", "count"},
	{"lock.acquire_release_ns", "ns"},
	{"wal.append_us", "us"}, {"wal.fsync_us", "us"}, {"wal.commits_per_fsync", "count"}, {"wal.bytes_per_commit", "B"}, {"wal.fsyncs_per_s", "1/s"},
	{"store.checkpoint_s", "s"}, {"store.checkpoint_bytes_per_put", "B"}, {"store.recovery_scan_s", "s"}, {"store.bytes_per_user_byte", "frac"},
	{"pagecache.hit_frac", "frac"}, {"pagecache.evictions", "count"}, {"pagecache.pin_hit_ns", "ns"}, {"pagecache.pin_miss_ns", "ns"},
	{"index.prop_lookup_ns", "ns"}, {"index.label_lookup_ns", "ns"},
	{"query.embedded_khop_us", "us"}, {"query.rows_per_s", "1/s"}, {"query.edges_walked_per_row", "count"}, {"query.first_chunk_us", "us"},
	{"repl.quorum_wait_us", "us"}, {"repl.lag_bytes_p50", "B"}, {"repl.lag_seconds_max", "s"}, {"repl.ryw_wait_us", "us"}, {"repl.degraded_commits", "count"},
	{"partition.cross_frac", "frac"}, {"partition.twopc_commit_us", "us"}, {"partition.single_commit_us", "us"}, {"partition.indoubt_peak", "count"},
	{"driver.late_frac", "frac"}, {"driver.sched_lag_p99_us", "us"}, {"driver.backlog_max", "count"}, {"driver.lat_max_ms", "ms"},
	{"read_p90_us", "us"}, {"read_p99_us", "us"}, {"write_p99_us", "us"},
	{"trace.overhead_frac", "frac"}, {"trace.root_read_p50_us", "us"}, {"trace.root_write_p50_us", "us"},
	{"trace.self_sum_frac_read", "frac"}, {"trace.self_sum_frac_write", "frac"},
	{"trace.bench_self_us", "us"}, {"trace.client_self_us", "us"}, {"trace.server_self_us", "us"},
	{"trace.commit_validate_self_us", "us"}, {"trace.wal_append_self_us", "us"}, {"trace.commit_install_self_us", "us"},
	{"trace.wal_fsync_batch_self_us", "us"}, {"trace.repl_quorum_wait_self_us", "us"}, {"trace.replica_apply_self_us", "us"},
}

// ledger collects the per-layer metrics of one traced run.
type ledger map[string]float64

// into copies the ledger into the report, every metric present.
func (l ledger) into(rep *report) {
	for _, m := range perLayer {
		rep.set(m.name, l[m.name], m.unit)
	}
}

// nsPerOp times n calls of fn on the calling goroutine.
func nsPerOp(n int, fn func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// mallocs counts the heap allocations fn makes (whole process: run it
// while nothing else does).
func mallocs(fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs)
}

func medianDur(d []time.Duration) float64 {
	v := make([]float64, len(d))
	for i := range d {
		v[i] = usOf(d[i])
	}
	return median(v)
}

// probeLayers replays the first probeOps ops of client 0's stream, from
// one goroutine, straight into each layer's exported functions. It runs
// on the quiesced system, before the load phases.
func probeLayers(ctx context.Context, p *prepared, l ledger) error {
	s := p.s
	ops := p.gen.streams[0][:min(probeOps, len(p.gen.streams[0]))]
	db := s.groups[0].primary.db
	ids := make([]neograph.NodeID, len(ops)) // the node each op starts from
	for i := range ops {
		ids[i] = s.g.people[0][ops[i].N[0]]
	}
	if err := probeEngine(db, ids, l); err != nil {
		return err
	}
	probeStandalone(s, l)
	if s.w.kind == kindTraverse {
		if err := probeQuery(db, ids, l); err != nil {
			return err
		}
	}
	if s.w.kind != kindEmbed {
		if err := probeWire(ctx, p, ops, l); err != nil {
			return err
		}
	}
	if s.w.kind == kindFleet {
		return probeFleet(ctx, p, l)
	}
	return nil
}

// probeEngine measures core and value through the embedded handle.
func probeEngine(db *neograph.DB, ids []neograph.NodeID, l ledger) error {
	n := len(ids)
	l["core.begin_ns"] = nsPerOp(n, func(int) { db.Begin().Abort() })
	props := make([]value.Map, n)
	edges := 0
	err := db.View(func(tx *neograph.Tx) error {
		var err error
		l["core.getnode_ns"] = nsPerOp(n, func(i int) {
			node, e := tx.GetNode(ids[i])
			if e != nil {
				err = e
			}
			props[i] = node.Props
		})
		total := nsPerOp(n, func(i int) {
			nb, e := tx.Neighbors(ids[i], neograph.Outgoing, workload.RelKnows)
			if e != nil {
				err = e
			}
			edges += len(nb)
		}) * float64(n)
		l["core.neighbors_ns_per_edge"] = total / math.Max(1, float64(edges))
		return err
	})
	if err != nil {
		return fmt.Errorf("core probe: %w", err)
	}
	enc := make([][]byte, n)
	var buf []byte
	l["value.encode_map_ns"] = nsPerOp(n, func(i int) {
		buf = value.AppendMap(buf[:0], props[i])
		enc[i] = append(enc[i][:0], buf...)
	})
	l["value.decode_map_ns"] = nsPerOp(n, func(i int) {
		if _, _, e := value.DecodeMap(enc[i]); e != nil {
			err = e
		}
	})
	if err != nil {
		return fmt.Errorf("value probe: %w", err)
	}

	// Commit: one-property write transactions on a node of the probe's
	// own, timing Commit alone; the fsyncs they waited for are timed by
	// the batcher's own histogram and subtracted.
	var probeNode neograph.NodeID
	if err := db.Update(0, func(tx *neograph.Tx) (err error) {
		probeNode, err = tx.CreateNode([]string{"Probe"}, nil)
		return err
	}); err != nil {
		return fmt.Errorf("commit probe: %w", err)
	}
	hist := db.Engine().CommitBatcher().SyncLatency()
	_, sum0 := hist.Snapshot()
	count0 := hist.Count()
	commits := make([]time.Duration, 200)
	for i := range commits {
		tx := db.Begin()
		if err := tx.SetNodeProp(probeNode, "v", neograph.Int(int64(i))); err != nil {
			return fmt.Errorf("commit probe: %w", err)
		}
		start := time.Now()
		if err := tx.Commit(); err != nil {
			return fmt.Errorf("commit probe: %w", err)
		}
		commits[i] = time.Since(start)
	}
	_, sum1 := hist.Snapshot()
	fsyncUS := (sum1 - sum0) * 1e6 / math.Max(1, float64(hist.Count()-count0))
	l["core.commit_self_us"] = math.Max(0, medianDur(commits)-fsyncUS)
	versions, entities := db.VersionCount()
	l["core.versions_per_entity"] = float64(versions) / math.Max(1, float64(entities))
	return nil
}

// probeStandalone measures the layers that have a life of their own —
// oracle, version chain, lock table, WAL, page cache, indexes — on
// instances the probe builds itself, sized like the workload's.
func probeStandalone(s *sut, l ledger) {
	const n = 20000
	o := mvcc.NewOracle(0)
	l["mvcc.oracle_begin_finish_ns"] = nsPerOp(n, func(int) {
		o.StartTS()
		o.FinishCommit(o.BeginCommit())
	})
	// A chain as deep as the aged store's chains are on average (at least
	// two versions, so that the walk has a step to take).
	depth := max(2, int(math.Ceil(l["core.versions_per_entity"])))
	chain := mvcc.NewChain()
	for ts := 1; ts <= depth; ts++ {
		chain.Install(&mvcc.Version{CommitTS: mvcc.TS(ts)})
	}
	l["mvcc.chain_visible_ns"] = nsPerOp(n, func(i int) { chain.Visible(mvcc.TS(1 + i%depth)) })

	locks := lock.NewManager()
	l["lock.acquire_release_ns"] = nsPerOp(n, func(i int) {
		k := lock.Key{Kind: lock.KindNode, ID: uint64(i % s.scale)}
		if locks.TryAcquire(1, k, lock.Exclusive) == nil {
			locks.Release(1, k)
		}
	})

	per := s.scale / s.w.parts
	props := index.NewPropertyIndex()
	labels := index.NewLabelIndex()
	for i := 0; i < per; i++ {
		props.Add(1, value.Int(int64(i)), uint64(i), 1)
		labels.Add(1, uint64(i), 1)
	}
	l["index.prop_lookup_ns"] = nsPerOp(n, func(i int) { props.Lookup(1, value.Int(int64(i%per)), 2) })
	l["index.label_lookup_ns"] = nsPerOp(200, func(int) { labels.Lookup(1, 2) })

	dir := filepath.Join(s.root, "probe")
	defer os.RemoveAll(dir)
	if w, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{}); err == nil {
		payload := make([]byte, 192) // about one transfer's commit record
		appends := make([]time.Duration, 200)
		syncs := make([]time.Duration, 200)
		for i := range appends {
			t0 := time.Now()
			w.Append(payload)
			t1 := time.Now()
			w.Sync()
			appends[i], syncs[i] = t1.Sub(t0), time.Since(t1)
		}
		w.Close()
		l["wal.append_us"] = medianDur(appends)
		l["wal.fsync_us"] = medianDur(syncs) // replaced by the in-run mean when the run has commits
	}
	const pages, capacity = 256, 64
	if f, err := os.OpenFile(filepath.Join(dir, "pages"), os.O_RDWR|os.O_CREATE, 0o644); err == nil {
		if f.Truncate(pages*pagecache.PageSize) == nil {
			if c, err := pagecache.New(f, capacity, pages*pagecache.PageSize); err == nil {
				pin := func(id uint64) {
					if pg, err := c.Pin(id); err == nil {
						c.Unpin(pg, false)
					}
				}
				pin(0)
				l["pagecache.pin_hit_ns"] = nsPerOp(n, func(int) { pin(0) })
				// Walking four times the capacity in order misses every time.
				l["pagecache.pin_miss_ns"] = nsPerOp(4*pages, func(i int) { pin(uint64(i % pages)) })
				c.Close()
			}
		}
	}
}

// khopPlan is the workload's traversal as the embedded pipeline takes it.
func khopPlan(id neograph.NodeID, limit int) *wire.QueryPlan {
	p := &wire.QueryPlan{Seed: wire.QuerySeed{IDs: []uint64{uint64(id)}}, Stages: []wire.QueryStage{
		{Op: wire.StageKHop, Dir: "out", Depth: 2, Types: []string{workload.RelKnows}},
		{Op: wire.StageFilterLabel, Label: workload.LabelPerson},
	}}
	if limit > 0 {
		p.Stages = append(p.Stages, wire.QueryStage{Op: wire.StageLimit, N: limit})
	}
	return p
}

// probeQuery runs the stream's traversals through query.Run in an
// embedded transaction — the pipeline without client, wire or server.
func probeQuery(db *neograph.DB, ids []neograph.NodeID, l ledger) error {
	took := make([]time.Duration, 0, len(ids))
	rows, edges := 0, 0
	err := db.View(func(tx *neograph.Tx) error {
		for _, id := range ids {
			start := time.Now()
			var visited []neograph.NodeID
			if err := query.Run(tx, khopPlan(id, queryLimit), func(r query.Row) error {
				rows++
				if r.Depth < 2 {
					visited = append(visited, r.ID)
				}
				return nil
			}); err != nil {
				return err
			}
			took = append(took, time.Since(start))
			// The pipeline expands every row above the last depth.
			for _, v := range visited {
				d, err := tx.Degree(v, neograph.Outgoing, workload.RelKnows)
				if err != nil {
					return err
				}
				edges += d
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("query probe: %w", err)
	}
	l["query.embedded_khop_us"] = medianDur(took)
	l["query.edges_walked_per_row"] = float64(edges) / math.Max(1, float64(rows))
	return nil
}

// recConn records every byte a client connection writes and reads.
type recConn struct {
	net.Conn
	out, in bytes.Buffer
}

func (c *recConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Write(p[:n])
	return n, err
}

func (c *recConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Write(p[:n])
	return n, err
}

// frames splits a recorded byte stream into its newline-delimited frames.
func frames(b *bytes.Buffer) [][]byte {
	var out [][]byte
	for _, f := range bytes.Split(b.Bytes(), []byte{'\n'}) {
		if len(f) > 0 {
			out = append(out, f)
		}
	}
	return out
}

// probeWire runs the probe ops over plain connections that record their
// frames, then replays the recorded frames through the wire types' JSON
// codec in both directions: what the client SDK and the server spend
// encoding and decoding these very requests and responses.
func probeWire(ctx context.Context, p *prepared, ops []op, l ledger) error {
	s := p.s
	var recs []*recConn
	for _, g := range s.groups {
		conn, err := net.Dial("tcp", g.primary.srv.Addr())
		if err != nil {
			return fmt.Errorf("wire probe: %w", err)
		}
		rc := &recConn{Conn: conn}
		recs = append(recs, rc)
		p.r.direct = append(p.r.direct, client.NewConn(rc))
	}
	defer func() {
		for _, c := range p.r.direct {
			c.Close()
		}
		p.r.direct = nil
	}()
	for i := range ops {
		if res := p.r.exec(ctx, 0, &ops[i], nil); res.err != nil {
			return fmt.Errorf("wire probe: op %d: %w", i, res.err)
		}
	}
	var reqs, resps [][]byte
	bytesTotal := 0
	for _, rc := range recs {
		bytesTotal += rc.out.Len() + rc.in.Len()
		reqs = append(reqs, frames(&rc.out)...)
		resps = append(resps, frames(&rc.in)...)
	}
	l["wire.bytes_per_op"] = float64(bytesTotal) / float64(len(ops))

	// The no-op round trip: what one call costs in client, TCP and server
	// before any engine work.
	pings := make([]time.Duration, 1000)
	var pingErr error
	l["client.allocs_per_op"] = mallocs(func() {
		for i := range pings {
			start := time.Now()
			if err := p.r.direct[0].Ping(ctx); err != nil {
				pingErr = err
			}
			pings[i] = time.Since(start)
		}
	}) / float64(len(pings))
	if pingErr != nil {
		return fmt.Errorf("wire probe: ping: %w", pingErr)
	}
	l["client.roundtrip_self_us"] = medianDur(pings)

	var codecErr error
	reqVals := make([]wire.Request, len(reqs))
	respVals := make([]wire.Response, len(resps))
	var chunks []*wire.Response
	allocs := mallocs(func() {
		l["wire.req_decode_ns"] = nsPerOp(len(reqs), func(i int) {
			if err := json.Unmarshal(reqs[i], &reqVals[i]); err != nil {
				codecErr = err
			}
		})
		l["wire.req_encode_ns"] = nsPerOp(len(reqs), func(i int) {
			if _, err := json.Marshal(&reqVals[i]); err != nil {
				codecErr = err
			}
		})
		l["wire.resp_decode_ns"] = nsPerOp(len(resps), func(i int) {
			if err := json.Unmarshal(resps[i], &respVals[i]); err != nil {
				codecErr = err
			}
		})
		l["wire.resp_encode_ns"] = nsPerOp(len(resps), func(i int) {
			if _, err := json.Marshal(&respVals[i]); err != nil {
				codecErr = err
			}
		})
	})
	if codecErr != nil {
		return fmt.Errorf("wire probe: codec: %w", codecErr)
	}
	l["wire.allocs_per_op"] = allocs / float64(len(ops))
	for i := range respVals {
		if len(respVals[i].Rows) > 0 {
			chunks = append(chunks, &respVals[i])
		}
	}
	if len(chunks) > 0 {
		l["wire.chunk_encode_ns"] = nsPerOp(len(chunks), func(i int) { json.Marshal(chunks[i]) })
	}
	return nil
}

// probeFleet measures what only the fleet has: the router's routing cost
// and the read-your-writes wait on a replica.
func probeFleet(ctx context.Context, p *prepared, l ledger) error {
	s := p.s
	id := s.g.people[0][0]
	l["client.pool_route_ns"] = nsPerOp(2000, func(int) {
		s.router.Read(ctx, "", uint64(id), func(*client.Client) error { return nil })
	})
	// A read right behind the client's own write, gated on it (routed to
	// the replica, which must have applied the write) against the same
	// read ungated.
	const tok = "probe"
	read := func(token string) (time.Duration, error) {
		start := time.Now()
		err := s.router.Read(ctx, token, uint64(id), func(cl *client.Client) error {
			return remoteRead(ctx, cl, id, 0).err
		})
		return time.Since(start), err
	}
	var gated, plain []time.Duration
	for i := 0; i < 200; i++ {
		var b client.Batch
		b.SetNodeProp(s.g.ledger[0][0], "probe", neograph.Int(int64(i)))
		if _, err := s.router.RunBatch(ctx, tok, &b); err != nil {
			return fmt.Errorf("fleet probe: %w", err)
		}
		g, err := read(tok)
		if err != nil {
			return fmt.Errorf("fleet probe: %w", err)
		}
		pl, err := read("")
		if err != nil {
			return fmt.Errorf("fleet probe: %w", err)
		}
		gated, plain = append(gated, g), append(plain, pl)
	}
	l["repl.ryw_wait_us"] = math.Max(0, medianDur(gated)-medianDur(plain))
	return nil
}

// ---- counters diffed across a load segment ----

// snapshot is the public counters of every layer at one instant, summed
// over the primaries (and, for admission, over every server).
type snapshot struct {
	at                                                time.Time
	gcCollected, flushes, synced, ckptPuts, ckptBytes uint64
	walPos, fsyncs                                    uint64
	fsyncSum                                          float64
	cacheHits, cacheMiss, cacheEvic                   uint64
	admitted, rejected, degraded                      uint64
}

func takeSnapshot(s *sut) snapshot {
	sn := snapshot{at: time.Now()}
	for _, db := range s.primaries() {
		st := db.Stats()
		sn.gcCollected += st.GCCollected
		sn.flushes += st.WALFlushes
		sn.synced += st.WALSyncedCommits
		sn.ckptPuts += st.CheckpointPuts
		sn.ckptBytes += st.CheckpointBytes
		sn.walPos += db.AppliedLSN()
		h := db.Engine().CommitBatcher().SyncLatency()
		_, sum := h.Snapshot()
		sn.fsyncSum += sum
		sn.fsyncs += h.Count()
		for _, cs := range db.Engine().Store().CacheStats() {
			sn.cacheHits += cs.Hits
			sn.cacheMiss += cs.Misses
			sn.cacheEvic += cs.Evictions
		}
		sn.degraded += db.ReplStatus().DegradedCommits
	}
	for _, n := range s.nodes() {
		if n.srv != nil {
			a := n.srv.Admission()
			sn.admitted += a.Admitted
			sn.rejected += a.Rejected
		}
	}
	return sn
}

// diffInto turns the counters' growth between two snapshots into metrics.
func diffInto(l ledger, a, b snapshot) {
	secs := b.at.Sub(a.at).Seconds()
	div := func(x, y float64) float64 { return x / math.Max(1, y) }
	flushes, synced := float64(b.flushes-a.flushes), float64(b.synced-a.synced)
	l["core.gc_collected_per_s"] = float64(b.gcCollected-a.gcCollected) / secs
	l["wal.commits_per_fsync"] = div(synced, flushes)
	l["wal.fsyncs_per_s"] = flushes / secs
	l["wal.bytes_per_commit"] = div(float64(b.walPos-a.walPos), synced)
	if n := b.fsyncs - a.fsyncs; n > 0 {
		l["wal.fsync_us"] = (b.fsyncSum - a.fsyncSum) * 1e6 / float64(n)
	}
	l["store.checkpoint_bytes_per_put"] = div(float64(b.ckptBytes-a.ckptBytes), float64(b.ckptPuts-a.ckptPuts))
	hits, miss := float64(b.cacheHits-a.cacheHits), float64(b.cacheMiss-a.cacheMiss)
	l["pagecache.hit_frac"] = div(hits, hits+miss)
	l["pagecache.evictions"] = float64(b.cacheEvic - a.cacheEvic)
	adm, rej := float64(b.admitted-a.admitted), float64(b.rejected-a.rejected)
	l["server.rejected_frac"] = div(rej, adm+rej)
	l["repl.degraded_commits"] = float64(b.degraded - a.degraded)
}

// sampler polls, while a load segment runs, the state that has no
// counter: how far the watermark trails the commits handed in, how far
// the replicas trail their primaries, and how many prepared transactions
// are in doubt.
type sampler struct {
	stop chan struct{}
	wg   sync.WaitGroup

	wmLag    []float64
	lagBytes []float64
	lagSecs  float64
	inDoubt  int
}

func startSampler(p *prepared) *sampler {
	sm := &sampler{stop: make(chan struct{})}
	s := p.s
	db := s.groups[0].primary.db
	// Quiesced: the watermark has caught up with every commit handed in.
	wm0, entered0 := db.Watermark(), p.r.commitsEntered.Load()
	sm.wg.Add(1)
	go func() {
		defer sm.wg.Done()
		for tick := 0; ; tick++ {
			select {
			case <-sm.stop:
				return
			case <-time.After(time.Millisecond):
			}
			if s.w.parts == 1 {
				lag := (p.r.commitsEntered.Load() - entered0) - int64(db.Watermark()-wm0)
				sm.wmLag = append(sm.wmLag, math.Max(0, float64(lag)))
			}
			if tick%50 != 0 {
				continue
			}
			for _, g := range s.groups {
				sm.inDoubt = max(sm.inDoubt, len(g.primary.db.InDoubt()))
				if g.replica == nil {
					continue
				}
				st := g.replica.db.ReplStatus()
				sm.lagSecs = math.Max(sm.lagSecs, st.LagSeconds)
				if st.PrimaryDurable > st.AppliedLSN {
					sm.lagBytes = append(sm.lagBytes, float64(st.PrimaryDurable-st.AppliedLSN))
				} else {
					sm.lagBytes = append(sm.lagBytes, 0)
				}
			}
		}
	}()
	return sm
}

func (sm *sampler) finish(l ledger) {
	close(sm.stop)
	sm.wg.Wait()
	sort.Float64s(sm.wmLag)
	l["mvcc.watermark_lag_p99"] = percentile(sm.wmLag, 0.99)
	l["repl.lag_bytes_p50"] = median(sm.lagBytes)
	l["repl.lag_seconds_max"] = sm.lagSecs
	l["partition.indoubt_peak"] = float64(sm.inDoubt)
}

// driverMetrics reports how well the generator kept the open loop's
// schedule, how far the system fell behind it, and the latency tails.
func driverMetrics(l ledger, samples []sample, rate float64) {
	lags := make([]float64, len(samples))
	worst := 0.0
	for i := range samples {
		lags[i] = usOf(samples[i].lag)
		worst = math.Max(worst, latencyUS(&samples[i]))
	}
	sort.Float64s(lags)
	// The tails that do not repeat within any bound the contract allows:
	// reported, not gated (README.md, "Unresolved tails").
	l["read_p90_us"] = windowed(samples, 0.90, isRead, latencyUS)
	l["read_p99_us"] = windowed(samples, 0.99, isRead, latencyUS)
	l["write_p99_us"] = windowed(samples, 0.99, isWrite, latencyUS)
	l["driver.late_frac"] = lateFrac(samples)
	l["driver.sched_lag_p99_us"] = percentile(lags, 0.99)
	// Sends that were due while a client was still behind.
	l["driver.backlog_max"] = math.Floor(percentile(lags, 1) / 1e6 * rate / clients)
	l["driver.lat_max_ms"] = worst / 1000
}

// storeMetrics measures the persistent store at the end of a run: what a
// checkpoint of the load's dirty set costs, how big the files are beside
// the user's bytes, and how long a scan of the record files — the part of
// recovery that depends on the store, not on the WAL tail — takes.
func storeMetrics(s *sut, l ledger) error {
	db := s.groups[0].primary.db
	start := time.Now()
	if err := db.Checkpoint(); err != nil {
		return err
	}
	l["store.checkpoint_s"] = time.Since(start).Seconds()
	user := 0
	err := db.View(func(tx *neograph.Tx) error {
		nodes, err := tx.AllNodes()
		if err != nil {
			return err
		}
		for _, id := range nodes {
			n, err := tx.GetNode(id)
			if err != nil {
				return err
			}
			user += n.Props.Size()
			for _, lb := range n.Labels {
				user += len(lb)
			}
		}
		rels, err := tx.AllRels()
		if err != nil {
			return err
		}
		for _, id := range rels {
			r, err := tx.GetRel(id)
			if err != nil {
				return err
			}
			user += 16 + len(r.Type) + r.Props.Size() // two endpoint IDs
		}
		return nil
	})
	if err != nil {
		return err
	}
	sizes, err := db.Engine().Store().FileSizes()
	if err != nil {
		return err
	}
	var files int64
	for _, sz := range sizes {
		files += sz
	}
	l["store.bytes_per_user_byte"] = float64(files) / math.Max(1, float64(user))
	return nil
}

// recoveryScan times a scan of the crashed primary's record files. Call it
// between the final crash and the reopen.
func recoveryScan(s *sut, l ledger) error {
	dir := filepath.Join(s.root, "p0-primary")
	start := time.Now()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	if err := st.ScanNodes(func(store.NodeData) error { return nil }); err != nil {
		return err
	}
	if err := st.ScanRels(func(store.RelData) error { return nil }); err != nil {
		return err
	}
	l["store.recovery_scan_s"] = time.Since(start).Seconds()
	return nil
}

package bench

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"neograph"
	"neograph/client"
	"neograph/internal/fleet"
)

// E12Row is one mode's measurement.
type E12Row struct {
	// Mode is "single-reads"/"batched-reads" (a pure GetNode stream, one
	// op vs Depth ops per round trip), "single-mixed"/"batched-mixed"
	// (the write-leaning ingest stream) or "pooled-replica-reads"
	// (single reads through a client.Pool over the replica fleet).
	Mode    string  `json:"mode"`
	Clients int     `json:"clients"`
	Depth   int     `json:"depth"`
	Ops     uint64  `json:"ops"`
	OpsPS   float64 `json:"ops_per_sec"`
	// Speedup is OpsPS relative to the single-op baseline row.
	Speedup float64 `json:"speedup"`
}

const (
	// e12Clients is the number of concurrent client sessions per mode.
	// E12 measures per-session pipelining, so it is 1: with many
	// concurrent single-op writers, cross-client group commit already
	// amortises fsyncs and the baseline flatters itself (that scaling
	// axis belongs to E9 and the benchmark's wal.commits_per_fsync).
	e12Clients = 1
	// e12Depth is the batch size (ops per round trip) in batched mode.
	e12Depth = 8
)

var e12 = Experiment{"E12", "remote ops/s: single-op RPC vs pipelined batches vs pooled replica reads", tabled(runE12,
	fmt.Sprintf("batched-mixed >= 3x single-mixed at depth %d (one round trip and ONE transaction per batch vs one "+
		"of each per write); batched-reads gain is bounded by RTT/op-cost on loopback; pooled reads route to "+
		"replicas over live WAL-shipping streams (routing demo, not CPU scaling — E9 models capacity)", e12Depth))}

// runE12 measures remote throughput in three shapes: one op per TCP
// round trip, e12Depth ops per round trip via the batch op (one request
// frame, one response frame, one server-side transaction), and pooled
// single reads routed over live replicas — the cost of chatty per-op RPC
// versus pipelined batch submission (the paper's round-trips-kill-graph-
// workloads argument measured on our own wire). Everything runs over
// real loopback TCP and the real server.
func runE12(p Params) ([]E12Row, error) {
	duration := pick(p, 2*time.Second, 500*time.Millisecond)
	ctx := context.Background()

	f, err := fleet.Start(fleet.Spec{Replicas: 2})
	if err != nil {
		return nil, err
	}
	defer f.Close()
	primary, replicas := f.Groups[0][0], f.Groups[0][1:]
	nodes, err := createNodes(primary.DB, pick(p, 2_000, 400), []string{"E12"}, neograph.Props{"v": neograph.Int(0)})
	if err != nil {
		return nil, err
	}

	// Two op streams, identical across shapes:
	//   reads — every op a GetNode: batching amortises only the round
	//           trip, so its gain is bounded by RTT/op-cost (loopback is
	//           the most batch-hostile network there is);
	//   mixed — 7 property writes per read-back (a bulk-ingest shape):
	//           single-op mode pays one round trip AND one auto-committed
	//           transaction (group-commit fsync) per write, batched mode
	//           executes the whole Depth-op unit as ONE transaction with
	//           one commit — the shape the paper's whole-operation-
	//           submission argument is about.
	reads := func(int) bool { return false }
	mixed := func(i int) bool { return i%8 != 7 } // 7 writes : 1 read
	retriable := func(err error) bool {
		return errors.Is(err, neograph.ErrWriteConflict) || errors.Is(err, neograph.ErrDeadlock)
	}
	type worker func(stop <-chan struct{}, cl int) (uint64, error)
	single := func(write func(int) bool) worker {
		return func(stop <-chan struct{}, cl int) (uint64, error) {
			c, err := client.Dial(ctx, primary.Addr())
			if err != nil {
				return 0, err
			}
			defer c.Close()
			r := rand.New(rand.NewSource(p.Seed + int64(cl)*7919))
			var ops uint64
			for i := 0; !stopped(stop); i++ {
				if write(i) {
					err = c.SetNodeProp(ctx, nodes[r.Intn(len(nodes))], "v", neograph.Int(r.Int63()))
				} else {
					_, err = c.GetNode(ctx, nodes[r.Intn(len(nodes))])
				}
				switch {
				case err == nil:
					ops++
				case retriable(err): // concurrent writers collided; retry
				default:
					return ops, err
				}
			}
			return ops, nil
		}
	}
	batched := func(write func(int) bool) worker {
		return func(stop <-chan struct{}, cl int) (uint64, error) {
			c, err := client.Dial(ctx, primary.Addr())
			if err != nil {
				return 0, err
			}
			defer c.Close()
			r := rand.New(rand.NewSource(p.Seed + int64(cl)*104729))
			var ops uint64
			for !stopped(stop) {
				b := &client.Batch{}
				for i := 0; i < e12Depth; i++ {
					if write(i) {
						b.SetNodeProp(nodes[r.Intn(len(nodes))], "v", neograph.Int(r.Int63()))
					} else {
						b.GetNode(nodes[r.Intn(len(nodes))])
					}
				}
				switch _, err := c.RunBatch(ctx, b); {
				case err == nil:
					ops += e12Depth
				case retriable(err): // the whole batch aborted on a collision; retry
				default:
					return ops, err
				}
			}
			return ops, nil
		}
	}

	// Pooled single reads over live replicas, routed by least lag. (One
	// process cannot add CPU by adding replicas, so this row demonstrates
	// routing on real replication streams, not machine-level scaling.)
	for i, r := range replicas {
		if err := r.DB.WaitApplied(primary.DB.DurableLSN(), 60*time.Second); err != nil {
			return nil, fmt.Errorf("e12 replica %d catch-up: %w", i, err)
		}
	}
	router, err := client.OpenRouter(ctx, client.RouterConfig{
		Partitions:   client.Group(primary.Addr(), replicas[0].Addr(), replicas[1].Addr()),
		Policy:       client.LeastLag,
		ConnsPerHost: e12Clients,
	})
	if err != nil {
		return nil, err
	}
	defer router.Close()
	pool := router.Pool(0)
	pooled := func(stop <-chan struct{}, cl int) (uint64, error) {
		r := rand.New(rand.NewSource(p.Seed + int64(cl)*31337))
		var ops uint64
		for !stopped(stop) {
			err := pool.Read(ctx, "", func(c *client.Client) error {
				_, err := c.GetNode(ctx, nodes[r.Intn(len(nodes))])
				return err
			})
			if err != nil {
				return ops, err
			}
			ops++
		}
		return ops, nil
	}

	var rows []E12Row
	for _, m := range []struct {
		mode     string
		depth    int
		baseline int // row index this mode's speedup is measured against
		run      worker
	}{
		{"single-reads", 1, 0, single(reads)},
		{"batched-reads", e12Depth, 0, batched(reads)},
		{"single-mixed", 1, 2, single(mixed)},
		{"batched-mixed", e12Depth, 2, batched(mixed)},
		{"pooled-replica-reads", 1, 0, pooled},
	} {
		row := E12Row{Mode: m.mode, Clients: e12Clients, Depth: m.depth, Speedup: 1}
		var total atomic.Uint64
		errc := make(chan error, e12Clients)
		elapsed := during(duration, e12Clients, func(cl int, stop <-chan struct{}) {
			ops, err := m.run(stop, cl)
			total.Add(ops)
			if err != nil {
				errc <- err
			}
		})
		select {
		case err := <-errc:
			return rows, fmt.Errorf("e12 %s: %w", m.mode, err)
		default:
		}
		row.Ops = total.Load()
		row.OpsPS = float64(row.Ops) / elapsed.Seconds()
		if m.baseline < len(rows) && rows[m.baseline].OpsPS > 0 {
			row.Speedup = row.OpsPS / rows[m.baseline].OpsPS
		}
		rows = append(rows, row)
	}
	return rows, nil
}

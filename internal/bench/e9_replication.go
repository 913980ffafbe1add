package bench

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"neograph"
	"neograph/internal/fleet"
)

// E9Row is one configuration's measurements.
type E9Row struct {
	Replicas int `json:"replicas"`
	// Readers is the aggregate read-slot count across serving instances.
	Readers int     `json:"readers"`
	ReadsPS float64 `json:"reads_per_sec"`
	// Speedup is ReadsPS relative to the primary-only baseline row.
	Speedup  float64 `json:"speedup"`
	WritesPS float64 `json:"writes_per_sec"`
	// Staleness of read-your-writes probes: time from a primary commit
	// until every replica has applied past its LSN token.
	LagProbes int           `json:"lag_probes"`
	LagP50    time.Duration `json:"lag_p50"`
	LagMax    time.Duration `json:"lag_max"`
	// MaxLagBytes is the largest sampled primary-durable minus
	// replica-applied position gap during the run.
	MaxLagBytes uint64 `json:"max_lag_bytes"`
}

// The E9 read-capacity model. A single process cannot add CPU by adding
// replicas, so instance capacity is modelled as slots/service-time
// offered load — delivered only while the machine keeps up; the
// replication pipeline itself (TCP shipping, redo apply, lag) is fully
// real.
const (
	// e9ReadSlots is the per-instance read concurrency: the number of
	// server slots each serving instance dedicates to read traffic.
	e9ReadSlots = 4
	// e9Writers write clients run on the primary in every configuration
	// (the replication stream is always live), each pacing one commit per
	// e9WriteEvery: the read-scaling claim is about a fixed write volume
	// being replicated, not writers racing readers for the machine's CPU.
	e9Writers    = 2
	e9WriteEvery = 2 * time.Millisecond
)

var e9 = Experiment{"E9", "read throughput vs replica count; replica apply lag (WAL-shipping replication)", tabled(runE9,
	fmt.Sprintf("with %d read slots per instance, aggregate reads/s scales ~linearly with replica count while the "+
		"primary keeps committing; apply lag stays bounded (replicas are prefix-consistent)", e9ReadSlots))}

// runE9 measures read throughput versus replica count (0 means reads are
// served by the primary, the baseline) and replica apply lag under write
// load. Replicas stream the primary's WAL over TCP and serve
// snapshot-isolated reads at their applied position while the write load
// keeps streaming.
func runE9(p Params) ([]E9Row, error) {
	var rows []E9Row
	for _, nReplicas := range []int{0, 1, 2} {
		row, err := runE9Config(p, nReplicas)
		if err != nil {
			return rows, err
		}
		row.Speedup = 1
		if len(rows) > 0 && rows[0].ReadsPS > 0 {
			row.Speedup = row.ReadsPS / rows[0].ReadsPS
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// runE9Config measures one replica-count cell.
func runE9Config(p Params, nReplicas int) (E9Row, error) {
	row := E9Row{Replicas: nReplicas}
	// serviceTime is each read slot's request period: one slot issues one
	// read every serviceTime (a closed-loop remote client's round trip).
	// The quick value keeps the real per-read CPU a negligible slice of
	// each slot, so the slot-capacity ratio holds on a loaded small box.
	serviceTime := pick(p, 300*time.Microsecond, time.Millisecond)
	duration := pick(p, 2*time.Second, 500*time.Millisecond)

	f, err := fleet.Start(fleet.Spec{Replicas: nReplicas})
	if err != nil {
		return row, err
	}
	defer f.Close()
	primary := f.Groups[0][0].DB
	nodes, err := createNodes(primary, pick(p, 2_000, 400), []string{"E9"}, neograph.Props{"v": neograph.Int(0)})
	if err != nil {
		return row, err
	}
	var replicas []*neograph.DB
	for i, n := range f.Groups[0][1:] {
		if err := n.DB.WaitApplied(primary.DurableLSN(), 60*time.Second); err != nil {
			return row, fmt.Errorf("replica %d catch-up: %w", i, err)
		}
		replicas = append(replicas, n.DB)
	}

	// Reads go to the replica fleet when there is one, else the primary.
	serving := replicas
	if nReplicas == 0 {
		serving = []*neograph.DB{primary}
	}
	row.Readers = e9ReadSlots * len(serving)

	var reads, writes, maxLagBytes atomic.Uint64
	var lagMu sync.Mutex
	var lags []time.Duration

	// Write load on the primary, identical in every configuration.
	write := func(i int, stop <-chan struct{}) {
		r := rand.New(rand.NewSource(p.Seed + int64(i)*7919))
		for !stopped(stop) {
			id := nodes[r.Intn(len(nodes))]
			err := primary.Update(3, func(tx *neograph.Tx) error {
				return tx.SetNodeProp(id, "v", neograph.Int(r.Int63()))
			})
			if err == nil {
				writes.Add(1)
			}
			time.Sleep(e9WriteEvery)
		}
	}
	// Read slots: each slot is one closed-loop client issuing a request
	// every serviceTime against an absolute schedule, so scheduler wakeup
	// latency is absorbed as slack rather than stretching every period.
	// Delivered throughput tracks the offered rate (slots/serviceTime per
	// instance) only while the machine keeps up — if reads are starved
	// the slot falls behind its schedule and throughput honestly drops.
	read := func(slot int, stop <-chan struct{}) {
		db := serving[slot/e9ReadSlots]
		r := rand.New(rand.NewSource(p.Seed + int64(slot/e9ReadSlots*1000+slot%e9ReadSlots)*104729))
		// Stagger slot phases so request waves don't align.
		next := time.Now().Add(time.Duration(r.Int63n(int64(serviceTime))))
		for !stopped(stop) {
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
			id := nodes[r.Intn(len(nodes))]
			err := db.View(func(tx *neograph.Tx) error {
				_, err := tx.GetNode(id)
				return err
			})
			if err == nil {
				reads.Add(1)
			}
			next = next.Add(serviceTime)
			// An overloaded machine can leave the schedule far in
			// the past; resync instead of bursting to catch up.
			if behind := time.Since(next); behind > 10*serviceTime {
				next = time.Now()
			}
		}
	}
	// Staleness probes: commit on the primary, time how long until every
	// replica has applied past the commit's LSN token (the read-your-
	// writes wait a real client would pay). Byte lag is sampled alongside.
	probe := func(stop <-chan struct{}) {
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			tx := primary.Begin()
			if err := tx.SetNodeProp(nodes[0], "probe", neograph.Int(time.Now().UnixNano())); err != nil {
				tx.Abort()
				continue
			}
			if err := tx.Commit(); err != nil {
				continue
			}
			t0 := time.Now()
			ok := true
			for _, rep := range replicas {
				// Snapshot both positions; the replica may apply past
				// the durable snapshot between the two reads, which is
				// zero lag, not uint64 wraparound.
				pd, ap := primary.DurableLSN(), rep.AppliedLSN()
				if ap < pd && pd-ap > maxLagBytes.Load() {
					maxLagBytes.Store(pd - ap)
				}
				if err := rep.WaitApplied(tx.CommitLSN(), 30*time.Second); err != nil {
					ok = false
					break
				}
			}
			if ok {
				lagMu.Lock()
				lags = append(lags, time.Since(t0))
				lagMu.Unlock()
			}
		}
	}

	slots := row.Readers
	during(duration, e9Writers+slots+min(nReplicas, 1), func(i int, stop <-chan struct{}) {
		switch {
		case i < e9Writers:
			write(i, stop)
		case i < e9Writers+slots:
			read(i-e9Writers, stop)
		default:
			probe(stop)
		}
	})

	row.ReadsPS = float64(reads.Load()) / duration.Seconds()
	row.WritesPS = float64(writes.Load()) / duration.Seconds()
	row.MaxLagBytes = maxLagBytes.Load()
	lat := summarize(lags)
	row.LagProbes, row.LagP50, row.LagMax = len(lags), lat.P50, lat.Max
	return row, nil
}

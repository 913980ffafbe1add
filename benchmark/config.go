package main

import "time"

// The run shape is fixed here, not in flags: two metrics are comparable
// only if every run that produced them had the same shape.
const (
	// clients is both the goroutine and the connection count of the load
	// generator; the box has two cores and the servers run in-process.
	clients = 2
	// avgFriends is the social graph's mean out-degree.
	avgFriends = 8
	// The aging pass runs agingBefore write transactions, checkpoints,
	// then runs agingAfter more, so a recovery reads an aged store and
	// replays a WAL tail of fixed size.
	agingBefore = 1000
	agingAfter  = 250
	// streamLen is the pre-generated op count per client; the phases walk
	// it cyclically.
	streamLen = 1 << 17
	// probeOps is how many ops of client 0's stream the layer probes replay.
	probeOps = 2000
	// A run sets the system up setupRepeats times and crashes and recovers
	// each set-up it discards recoveriesPerSetup times; the medians are
	// reported.
	setupRepeats       = 3
	recoveriesPerSetup = 2
	// maxRetries bounds the retries of a write that hit a write conflict.
	maxRetries = 8
	// window is the sub-window every timing of the load phases is computed
	// over; a run reports the median window (see windowed).
	window = time.Second
	// graphSeed seeds the loaded graph. It is not the run's --seed: that
	// one drives the op streams, and every seed runs against the same
	// graph, so that the hot nodes cost the same to read in every run.
	graphSeed = 1
	// opDeadline fails an op that takes longer.
	opDeadline = time.Second
	// A send is late when it left more than lateAfter after the moment it
	// could have left: its scheduled time or, if the client's previous op
	// was still running then, that op's completion. That is the generator's
	// own lateness; the wait behind a slow op is the system's, and is part
	// of the op's latency. A run with more than maxLateFrac late sends is
	// invalid: its generator did not offer the load it claims. (A healthy
	// run has 0.2-1.1%, because the generator shares the process's two
	// cores with the engine's checkpoint and GC passes; one that sleeps
	// between sends on this sandbox's 1 ms timer grid has about 50%.)
	lateAfter   = time.Millisecond
	maxLateFrac = 0.05

	gcInterval         = time.Second
	checkpointInterval = 5 * time.Second
	// The page cache's capacity is per store file. A loaded store has about
	// 2950 pages (props 1935, rels 780, dyn 188, nodes 47): embedCachePages
	// lets embed_mix hold about a quarter of them, so checkpoint write-back
	// evicts; fitCachePages holds every file whole, with room to grow.
	embedCachePages = 256
	fitCachePages   = 4096
)

// phases splits the measured --seconds: an open loop for latency whose
// first tenth is a discarded warm-up, then a closed loop for throughput.
type phases struct {
	warm, closed, open time.Duration
}

func splitSeconds(seconds float64) phases {
	total := time.Duration(seconds * float64(time.Second))
	p := phases{warm: total / 10, closed: total * 3 / 10}
	p.open = total - p.warm - p.closed
	return p
}

type kind int

const (
	kindEmbed kind = iota
	kindRemote
	kindTraverse
	kindFleet
)

// workloadDef is one workload: its graph, topology, op mix, and the fixed rate
// of its open loop. The rates are 16-32% of what the closed loop reaches
// on the reference sandbox while it is quiet: the highest round numbers at
// which, also while a neighbour slows the box, the interval between a
// client's sends exceeds its write p90 (README.md has the measurements).
// They are constants so that a faster engine shows as lower latency at the
// same offered load.
type workloadDef struct {
	name string
	kind kind
	// people is the social graph's node count (on the fleet: split over
	// the partitions). It is sized so that a recovery takes more than half
	// a second on the reference sandbox (0.53-0.79 s while it is quiet).
	people    int
	writeFrac float64 // share of write ops in the stream
	theta     float64 // Zipf skew of read targets
	rate      float64 // open-loop arrivals per second, both clients together
	parts     int     // partitions
	why       string
}

var workloads = []workloadDef{
	{name: "embed_mix", kind: kindEmbed, people: 12000, writeFrac: 0.25, theta: 0.1, rate: 4000, parts: 1,
		why: "embedded DB, no network: core/mvcc/lock/wal/store do all the work, client/wire/server none"},
	{name: "remote_mix", kind: kindRemote, people: 12000, writeFrac: 0.25, theta: 0.1, rate: 2000, parts: 1,
		why: "the same op stream through client, JSON wire and one server: remote minus embedded is their share"},
	{name: "remote_traverse", kind: kindTraverse, people: 12000, writeFrac: 0.25, theta: 0.1, rate: 1200, parts: 1,
		why: "streamed 2-hop queries beside edge inserts: query pipeline, version-chain walks, chunked frames"},
	{name: "fleet_batch", kind: kindFleet, people: 8000, writeFrac: 0.5, theta: 0.1, rate: 600, parts: 2,
		why: "2 partitions x (primary+sync replica) behind the router: quorum wait, 2PC and routing block"},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

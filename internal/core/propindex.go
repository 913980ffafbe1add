package core

import (
	"math"
	"slices"
	"sync"
	"time"

	"neograph/internal/ids"
	"neograph/internal/index"
	"neograph/internal/lock"
	"neograph/internal/metrics"
	"neograph/internal/mvcc"
	"neograph/internal/value"
)

// This file is the engine's side of the on-demand property indexes
// (index/ondemand.go): a property key has postings from the first time a
// lookup names it on this engine — an Open, a promotion, a re-seed start
// with none — and the first lookup builds them from the version chains,
// which hold every version a live snapshot can read.

// propIndex is one of the engine's two property indexes with what the
// engine needs to build a key's postings: which entities it covers, and
// the record of the builds so far.
type propIndex struct {
	*index.PropertyIndex
	name string // the `index` label of its /metrics series
	kind lock.EntityKind
	// buildSeconds is how long first lookups took, whole builds.
	buildSeconds *metrics.Histogram

	mu     sync.Mutex
	builds []IndexBuild
}

func newPropIndex(name string, kind lock.EntityKind) *propIndex {
	return &propIndex{
		PropertyIndex: index.NewPropertyIndex(),
		name:          name,
		kind:          kind,
		buildSeconds:  metrics.NewHistogram(metrics.ExpBuckets(0.0001, 4, 10)), // 100 µs .. 26 s
	}
}

// IndexBuild reports one first lookup: the build of a property key's
// postings.
type IndexBuild struct {
	Index string // "node_prop" or "rel_prop"
	Key   string
	// Cut and Published bracket the side log: versions committed at or
	// below Cut came from the scan, those in (Cut, Published] from the side
	// log, later ones went straight to the postings.
	Cut, Published mvcc.TS
	Entries        int           // runs of versions the scan turned into entries
	Scan           time.Duration // the scan, commits running beside it
	SideLog        int           // changes the side log held, all told
	Held           int           // those of them replayed with commits held out
	Exclusive      time.Duration // for how long they were
}

// IndexBuilds returns the builds of this engine's lifetime, oldest first:
// one per materialised property key.
func (e *Engine) IndexBuilds() []IndexBuild {
	var out []IndexBuild
	for _, p := range [...]*propIndex{e.nodeProps, e.relProps} {
		p.mu.Lock()
		out = append(out, p.builds...)
		p.mu.Unlock()
	}
	return out
}

// IndexBuildSeconds exposes the first-lookup duration histograms for
// /metrics, keyed like IndexStats.
func (e *Engine) IndexBuildSeconds() map[string]*metrics.Histogram {
	return map[string]*metrics.Histogram{
		e.nodeProps.name: e.nodeProps.buildSeconds,
		e.relProps.name:  e.relProps.buildSeconds,
	}
}

// OnIndexBuilt installs fn to be called after every build (the DB layer
// logs it). Set it before the engine serves lookups.
func (e *Engine) OnIndexBuilt(fn func(IndexBuild)) { e.indexBuilt = fn }

// propLookup answers a committed-state property lookup at ts from p,
// building the key's postings first if this is the first lookup to name
// the key. A key no entity ever carried is built like any other, empty.
func (e *Engine) propLookup(p *propIndex, key string, val value.Value, ts mvcc.TS) []uint64 {
	tok := e.tok.get(tokPropKey, key)
	if !p.Await(tok) {
		e.buildKey(p, tok, key)
	}
	return p.Lookup(tok, val, ts)
}

// buildKey materialises key's postings in p. Two short exclusive sections
// of the commit gate — the checkpoint's cut idiom — bracket a scan that
// runs beside commits:
//
//  1. cut: with no commit between its timestamp and the end of its fold,
//     the key becomes building and the last timestamp handed out is the
//     cut. Every commit at or below it is in the chains; every later one
//     finds the key building and logs its change. A snapshot pinned here
//     keeps the collector off what the scan is about to read.
//  2. scan: every chain of the kind, versions at or below the cut only.
//  3. catch up: the side log is replayed beside the commits that extend
//     it, for as long as each round halves it.
//  4. publish: what is left of it is replayed and the key becomes built.
//
// Commits wait for that remainder, never for the scan.
func (e *Engine) buildKey(p *propIndex, tok uint32, key string) {
	start := time.Now()
	pin := e.txnSeq.Add(1)
	e.commitGate.Lock()
	b := p.StartBuild(tok)
	if b == nil {
		// Another first lookup got here first.
		e.commitGate.Unlock()
		p.Await(tok)
		return
	}
	rep := IndexBuild{Index: p.name, Key: key, Cut: e.oracle.LastCommit()}
	e.active.Register(pin, e.oracle.Watermark())
	e.commitGate.Unlock()
	if e.buildCut != nil {
		e.buildCut(key, rep.Cut)
	}

	b.Scan(func(run func(value.Value, uint64, mvcc.TS, mvcc.TS)) {
		var buf []keyedVersion
		for _, id := range e.entityIDs(p.kind) {
			if o := e.getObject(entKey{p.kind, id}); o != nil {
				buf = versionRuns(&o.chain, id, key, rep.Cut, buf[:0], run)
			}
		}
	})
	rep.Entries = b.Entries
	rep.Scan = time.Since(start)
	// Each round replays what was logged during the one before. It goes on
	// while that halves the log — a bounded number of rounds — and stops
	// when writers log at a rate this cannot outrun.
	for prev := math.MaxInt; ; {
		n := b.Replay()
		rep.SideLog += n
		if n <= shortSideLog || n > prev/2 {
			break
		}
		prev = n
	}

	excl := time.Now()
	e.commitGate.Lock()
	rep.Held = b.Publish()
	rep.Published = e.oracle.LastCommit()
	e.commitGate.Unlock()
	rep.Exclusive = time.Since(excl)
	rep.SideLog += rep.Held
	e.active.Unregister(pin)

	p.buildSeconds.ObserveDuration(time.Since(start))
	p.mu.Lock()
	p.builds = append(p.builds, rep)
	p.mu.Unlock()
	if e.indexBuilt != nil {
		e.indexBuilt(rep)
	}
}

// shortSideLog is a side log not worth another round of catching up: the
// commits that arrive while it is replayed are about as many as those
// its replay would hold out.
const shortSideLog = 32

// entityIDs returns the IDs of every cached entity of a kind, ascending:
// the candidates of a full scan (AllNodes, AllRels), and the order a
// posting takes entries in without moving any.
func (e *Engine) entityIDs(kind lock.EntityKind) []ids.ID {
	var out []ids.ID
	for i := range e.stripes {
		s := &e.stripes[i]
		s.mu.RLock()
		m := s.nodes
		if kind == lock.KindRel {
			m = s.rels
		}
		out = slices.Grow(out, len(m))
		for id := range m {
			out = append(out, id)
		}
		s.mu.RUnlock()
	}
	slices.Sort(out)
	return out
}

// keyedVersion is what one version says about one property key.
type keyedVersion struct {
	ts  mvcc.TS
	val value.Value
	has bool
}

// versionRuns reports, newest first, the runs of consecutive versions of
// entity id's chain at or below cut that carry the same value of key: added is the
// run's oldest version, removed the version that ended it — read off the
// chain itself — or index.NeverRemoved for the run that reaches the cut.
// A tombstone carries nothing. buf is scratch space, returned for reuse.
func versionRuns(c *mvcc.Chain, id ids.ID, key string, cut mvcc.TS, buf []keyedVersion, run func(val value.Value, id uint64, added, removed mvcc.TS)) []keyedVersion {
	c.Each(func(v *mvcc.Version) {
		if v.CommitTS > cut {
			return
		}
		kv := keyedVersion{ts: v.CommitTS}
		if !v.Deleted {
			switch st := v.Data.(type) {
			case *NodeState:
				kv.val, kv.has = st.Props.Get(key)
			case *RelState:
				kv.val, kv.has = st.Props.Get(key)
			}
		}
		buf = append(buf, kv)
	})
	removed := mvcc.TS(index.NeverRemoved)
	for i := 0; i < len(buf); {
		j := i
		for j+1 < len(buf) && buf[j+1].has == buf[i].has && (!buf[i].has || buf[j+1].val.Equal(buf[i].val)) {
			j++
		}
		if buf[i].has {
			run(buf[i].val, id, buf[j].ts, removed)
		}
		removed = buf[j].ts
		i = j + 1
	}
	return buf
}

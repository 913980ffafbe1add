package store

import (
	"errors"
	"fmt"
	"os"
	"sync"

	"neograph/internal/faultfs"
	"neograph/internal/ids"
	"neograph/internal/pagecache"
	"neograph/internal/record"
	"neograph/internal/value"
)

// ErrNotFound reports a record that is not in use.
var ErrNotFound = errors.New("store: record not found")

// Options tune the store.
type Options struct {
	// CachePages is the page-cache capacity per record file. Zero means
	// DefaultCachePages.
	CachePages int
	// FS is the file-system seam, nil meaning the real OS. Crash tests
	// substitute a faultfs.Injector.
	FS faultfs.FS
}

// DefaultCachePages is the per-file page cache capacity when unset.
const DefaultCachePages = 1024

// Store bundles the record files and token registry that together form the
// persistent store of Figure 1.
type Store struct {
	mu      sync.Mutex // serialises structural (chain) updates
	dir     string
	fs      faultfs.FS
	nodes   *recordFile
	rels    *recordFile
	props   *recordFile
	dyn     *recordFile
	journal *journal // where the four files' caches write back (journal.go)
	tokens  *Tokens

	journalReplays uint64
}

// Open opens (creating if needed) the store in directory dir.
func Open(dir string, opts Options) (*Store, error) {
	if opts.CachePages <= 0 {
		opts.CachePages = DefaultCachePages
	}
	fs := faultfs.OrOS(opts.FS)
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: mkdir %s: %w", dir, err)
	}
	// The token file first: it names the store's format, and a directory
	// written in another one is refused before anything in it is touched.
	tokens, err := OpenTokens(fs, dir+"/neostore.tokens.db")
	if err != nil {
		return nil, err
	}
	replayed, err := replayJournal(fs, dir)
	if err != nil {
		return nil, err
	}
	j := &journal{fs: fs, dir: dir, slots: make(map[pageKey]int64)}
	s := &Store{dir: dir, fs: fs, journal: j, tokens: tokens}
	if replayed {
		s.journalReplays = 1
	}
	if s.nodes, err = openRecordFile(j, 0, record.NodeSize, opts.CachePages); err != nil {
		return nil, err
	}
	if s.rels, err = openRecordFile(j, 1, record.RelSize, opts.CachePages); err != nil {
		s.closePartial()
		return nil, err
	}
	if s.props, err = openRecordFile(j, 2, record.PropSize, opts.CachePages); err != nil {
		s.closePartial()
		return nil, err
	}
	if s.dyn, err = openRecordFile(j, 3, record.DynSize, opts.CachePages); err != nil {
		s.closePartial()
		return nil, err
	}
	return s, nil
}

func (s *Store) closePartial() {
	for _, f := range []*recordFile{s.nodes, s.rels, s.props, s.dyn} {
		if f != nil {
			f.close()
		}
	}
}

// Tokens exposes the token registry.
func (s *Store) Tokens() *Tokens { return s.tokens }

// JournalReplays counts the flushes a crash had interrupted that Open
// finished from their journal before reading the files: one or none.
func (s *Store) JournalReplays() uint64 { return s.journalReplays }

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// Flush makes every change since the last flush durable — all of them or,
// if it is cut short, none (journal.go).
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, f := range []*recordFile{s.nodes, s.rels, s.props, s.dyn} {
		if err := f.cache.Flush(); err != nil { // stages what is still dirty
			return err
		}
	}
	return s.journal.flush()
}

// Close flushes and closes every file.
func (s *Store) Close() error {
	firstErr := s.Flush()
	for _, f := range []*recordFile{s.nodes, s.rels, s.props, s.dyn} {
		if err := f.close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	s.journal.close()
	return firstErr
}

// Crash closes every file without flushing dirty pages, simulating a
// process crash. Only what the last completed Flush wrote survives on
// disk. Test-support only.
func (s *Store) Crash() error {
	var firstErr error
	for _, f := range []*recordFile{s.nodes, s.rels, s.props, s.dyn} {
		if err := f.cache.Discard(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	s.journal.close()
	return firstErr
}

// CacheStats reports page-cache effectiveness per record file, keyed by
// the short file name used on /metrics ("nodes", "rels", "props", "dyn").
func (s *Store) CacheStats() map[string]pagecache.Stats {
	return map[string]pagecache.Stats{
		"nodes": s.nodes.cache.Stats(),
		"rels":  s.rels.cache.Stats(),
		"props": s.props.cache.Stats(),
		"dyn":   s.dyn.cache.Stats(),
	}
}

// CacheShardStats reports per-LRU-segment counters for each record file.
func (s *Store) CacheShardStats() map[string][]pagecache.Stats {
	return map[string][]pagecache.Stats{
		"nodes": s.nodes.cache.ShardStats(),
		"rels":  s.rels.cache.ShardStats(),
		"props": s.props.cache.ShardStats(),
		"dyn":   s.dyn.cache.ShardStats(),
	}
}

// FileSizes reports the byte size of each store file, for the F1 report.
func (s *Store) FileSizes() (map[string]int64, error) {
	out := make(map[string]int64, 4)
	for name, f := range map[string]*recordFile{
		"nodes": s.nodes, "rels": s.rels, "props": s.props, "dyn": s.dyn,
	} {
		st, err := s.fs.Stat(f.path)
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				out[name] = 0
				continue
			}
			return nil, err
		}
		out[name] = st.Size()
	}
	return out, nil
}

// ---- dynamic-store chains ----

// writeDynChain stores data as a chain of dynamic records, returning the
// head ID. Empty data returns ids.NoID. Caller holds s.mu.
func (s *Store) writeDynChain(data []byte) (ids.ID, error) {
	if len(data) == 0 {
		return ids.NoID, nil
	}
	// Allocate all blocks first so Next pointers can be threaded forward.
	n := (len(data) + record.DynPayload - 1) / record.DynPayload
	blockIDs := make([]ids.ID, n)
	for i := range blockIDs {
		blockIDs[i] = s.dyn.alloc.Next()
	}
	var buf [record.DynSize]byte
	for i := 0; i < n; i++ {
		lo := i * record.DynPayload
		hi := lo + record.DynPayload
		if hi > len(data) {
			hi = len(data)
		}
		next := ids.NoID
		if i+1 < n {
			next = blockIDs[i+1]
		}
		d := record.DynRecord{InUse: true, Payload: data[lo:hi], Next: next}
		record.EncodeDyn(buf[:], &d)
		if err := s.dyn.write(blockIDs[i], buf[:]); err != nil {
			return ids.NoID, err
		}
	}
	return blockIDs[0], nil
}

// freeDynChain releases every record of a dynamic chain. Caller holds s.mu.
//
// The walk stops — without error — at anything that is not a live,
// decodable record inside the allocated range. A checkpoint that crashed
// between per-file flushes can leave a durable referencing record whose
// chain never reached this file: the pointer dangles into unallocated or
// stale space, there is nothing durable to free, and the rewrite that
// triggered the free replaces the reference. Zeroing before following
// Next also makes the walk idempotent (and cycle-proof) when two stale
// records reference the same chain.
func (s *Store) freeDynChain(head ids.ID) error {
	var buf [record.DynSize]byte
	for id := head; id != ids.NoID; {
		if id >= s.dyn.alloc.HighWater() {
			return nil
		}
		if err := s.dyn.read(id, buf[:]); err != nil {
			return err
		}
		d, err := record.DecodeDyn(buf[:])
		if err != nil || !d.InUse {
			return nil
		}
		if err := s.dyn.zero(id); err != nil {
			return err
		}
		s.dyn.alloc.Release(id)
		id = d.Next
	}
	return nil
}

// ---- property chains ----

// writePropChain persists an entity's properties as a chain of property
// records in key order, returning the head ID; no properties, no chain
// (ids.NoID). Each record holds its value's bytes as the list holds them.
// Keys are registered in the token registry. Caller holds s.mu.
func (s *Store) writePropChain(props value.Packed) (ids.ID, error) {
	if props.Len() == 0 {
		return ids.NoID, nil
	}
	recIDs := make([]ids.ID, props.Len())
	for i := range recIDs {
		recIDs[i] = s.props.alloc.Next()
	}
	var buf [record.PropSize]byte
	var enc []byte
	it := props.Iter()
	for i := 0; it.Next(); i++ {
		tok, err := s.tokens.Get(TokenPropKey, it.Key())
		if err != nil {
			return ids.NoID, err
		}
		enc = append(enc[:0], it.Encoded()...)
		p := record.PropRecord{InUse: true, Key: tok, Next: ids.NoID}
		if i+1 < len(recIDs) {
			p.Next = recIDs[i+1]
		}
		if len(enc) <= record.PropInlineMax {
			p.Inline = enc
			p.SpillRef = ids.NoID
		} else {
			ref, err := s.writeDynChain(enc)
			if err != nil {
				return ids.NoID, err
			}
			p.Spilled = true
			p.SpillRef = ref
		}
		record.EncodeProp(buf[:], &p)
		if err := s.props.write(recIDs[i], buf[:]); err != nil {
			return ids.NoID, err
		}
	}
	return recIDs[0], nil
}

// freePropChain releases a property chain and any spilled values.
// Caller holds s.mu. Dangling references left by a torn checkpoint end
// the walk silently, exactly as in freeDynChain.
func (s *Store) freePropChain(head ids.ID) error {
	var buf [record.PropSize]byte
	for id := head; id != ids.NoID; {
		if id >= s.props.alloc.HighWater() {
			return nil
		}
		if err := s.props.read(id, buf[:]); err != nil {
			return err
		}
		p, err := record.DecodeProp(buf[:])
		if err != nil || !p.InUse {
			return nil
		}
		if p.Spilled {
			if err := s.freeDynChain(p.SpillRef); err != nil {
				return err
			}
		}
		if err := s.props.zero(id); err != nil {
			return err
		}
		s.props.alloc.Release(id)
		id = p.Next
	}
	return nil
}

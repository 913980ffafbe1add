// Package store implements the persistent store of Figure 1: one record
// file per entity kind (nodes, relationships, properties, dynamic data)
// over the page cache, plus the token registry for label, relationship
// type and property key names.
//
// Exactly one version of each entity — the most recent committed one — is
// ever written here (paper §4); superseded versions exist only in the
// object cache (internal/core), which also serves every read. The store is
// read whole, in ID order, at Open (ScanNodes, ScanRels) and written by
// checkpoints and the collector, so it is a plain relation per entity
// kind: putting or removing an entity touches that entity's record and
// the property, spill and label chains hanging off it, nothing else.
package store

import (
	"fmt"
	"os"
	"path/filepath"

	"neograph/internal/ids"
	"neograph/internal/pagecache"
	"neograph/internal/record"
)

// recordFile is a fixed-size-record array over a page cache.
type recordFile struct {
	cache   *pagecache.Cache
	size    int // record size in bytes
	perPage int
	alloc   *ids.Allocator
	path    string // store file path (id file is path + ".id")
}

// openRecordFile opens record file number file of journalFiles. Its cache
// writes back into j, which alone writes the file itself.
func openRecordFile(j *journal, file, recSize, cachePages int) (*recordFile, error) {
	path := filepath.Join(j.dir, journalFiles[file])
	// Open through the fault seam so crash tests can kill store I/O; the
	// page cache itself only needs the File surface.
	backing, err := j.fs.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", path, err)
	}
	st, err := backing.Stat()
	if err != nil {
		backing.Close()
		return nil, fmt.Errorf("store: stat %s: %w", path, err)
	}
	j.files[file] = backing
	cache, err := pagecache.New(stagedFile{j, file}, cachePages, st.Size())
	if err != nil {
		backing.Close()
		return nil, err
	}
	f := &recordFile{
		cache:   cache,
		size:    recSize,
		perPage: pagecache.PageSize / recSize,
		path:    path,
	}
	// Allocator state is rebuilt by scanning in-use flags rather than
	// trusting a side file: after a crash, a persisted free list could
	// hand out the ID of a record that became live since it was saved.
	// Every record format keeps its in-use bit in byte 0, bit 0. One pass,
	// one pin per page: the slots between one record in use and the next
	// are free; those after the last were never allocated.
	alloc := ids.NewAllocator()
	var free []ids.ID
	hw := ids.ID(0)
	for page := uint64(0); page < cache.PageCount(); page++ {
		p, err := cache.Pin(page)
		if err != nil {
			cache.Close()
			return nil, fmt.Errorf("store: read page %d of %s: %w", page, path, err)
		}
		data, id := p.Data(), page*uint64(f.perPage)
		for off := 0; off+recSize <= pagecache.PageSize; off, id = off+recSize, id+1 {
			if data[off]&record.FlagInUse == 0 {
				continue
			}
			for ; hw < id; hw++ {
				free = append(free, hw)
			}
			hw = id + 1
		}
		cache.Unpin(p, false)
	}
	alloc.SetHighWater(hw)
	for _, id := range free {
		alloc.Release(id)
	}
	f.alloc = alloc
	return f, nil
}

// read copies record id into buf (len >= f.size).
func (f *recordFile) read(id ids.ID, buf []byte) error {
	page, off := f.locate(id)
	p, err := f.cache.Pin(page)
	if err != nil {
		return fmt.Errorf("store: read record %d of %s: %w", id, f.path, err)
	}
	copy(buf[:f.size], p.Data()[off:])
	f.cache.Unpin(p, false)
	return nil
}

// write copies buf (len >= f.size) into record id.
func (f *recordFile) write(id ids.ID, buf []byte) error {
	page, off := f.locate(id)
	p, err := f.cache.Pin(page)
	if err != nil {
		return fmt.Errorf("store: write record %d of %s: %w", id, f.path, err)
	}
	copy(p.Data()[off:off+f.size], buf[:f.size])
	f.cache.Unpin(p, true)
	return nil
}

func (f *recordFile) locate(id ids.ID) (page uint64, off int) {
	return id / uint64(f.perPage), int(id%uint64(f.perPage)) * f.size
}

// zeroRecord is a free record of every file: all zero, as long as the
// largest record. write copies from it and never writes into it.
var zeroRecord [record.DynSize]byte

// zero clears record id (marks it not-in-use on disk).
func (f *recordFile) zero(id ids.ID) error {
	return f.write(id, zeroRecord[:])
}

func (f *recordFile) close() error { return f.cache.Close() }

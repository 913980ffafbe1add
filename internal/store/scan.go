package store

import (
	"encoding/binary"
	"fmt"

	"neograph/internal/ids"
	"neograph/internal/pagecache"
	"neograph/internal/record"
	"neograph/internal/value"
)

// cursor reads the records of one file through its page cache and keeps
// the page of the record it read last pinned, so a run of reads inside one
// page — a page walked slot by slot, a chain written in one go — costs one
// pin. It holds at most one pin at a time. Whoever makes one either holds
// s.mu or knows the store has no writer, and releases it when done.
type cursor struct {
	f  *recordFile
	hw ids.ID // the file's high water when the cursor was made
	p  *pagecache.Page
}

func newCursor(f *recordFile) cursor { return cursor{f: f, hw: f.alloc.HighWater()} }

// record returns record id as it lies in its page. The bytes are valid
// until the cursor's next record or release, and are not to be written. A
// pointer past the high water is followed nowhere: it is ErrNotFound.
func (c *cursor) record(id ids.ID) ([]byte, error) {
	if id >= c.hw {
		return nil, fmt.Errorf("%w: record %d of %s", ErrNotFound, id, c.f.path)
	}
	page, off := c.f.locate(id)
	if c.p == nil || c.p.ID() != page {
		c.release()
		p, err := c.f.cache.Pin(page)
		if err != nil {
			return nil, fmt.Errorf("store: read record %d of %s: %w", id, c.f.path, err)
		}
		c.p = p
	}
	return c.p.Data()[off : off+c.f.size], nil
}

func (c *cursor) release() {
	if c.p != nil {
		c.f.cache.Unpin(c.p, false)
		c.p = nil
	}
}

// reader turns node and relationship records into entity images: it
// follows their property, spill and label chains through a cursor on each
// of the two chain files, and names tokens from the registry's tables as
// they were when it was made (tokens are only ever appended).
type reader struct {
	props, dyn                cursor
	keyNames, labels, relType []string
	raw                       []byte // the dynamic chain read last
	fields                    []byte // the property chain read last, encoded
}

func (s *Store) newReader() *reader {
	return &reader{
		props:    newCursor(s.props),
		dyn:      newCursor(s.dyn),
		keyNames: s.tokens.names(TokenPropKey),
		labels:   s.tokens.names(TokenLabel),
		relType:  s.tokens.names(TokenRelType),
	}
}

func (r *reader) release() {
	r.props.release()
	r.dyn.release()
}

// node completes the image of node id from its record.
func (r *reader) node(id ids.ID, rec *record.NodeRecord) (NodeData, error) {
	props, err := r.propChain(rec.FirstProp)
	if err != nil {
		return NodeData{}, err
	}
	n := NodeData{ID: id, Tombstone: rec.Tombstone, Props: props, CommitTS: rec.CommitTS}
	if n.Labels, err = r.labelChain(rec.LabelRef); err != nil {
		return NodeData{}, err
	}
	return n, nil
}

// rel completes the image of relationship id from its record.
func (r *reader) rel(id ids.ID, rec *record.RelRecord) (RelData, error) {
	if int(rec.Type) >= len(r.relType) {
		return RelData{}, fmt.Errorf("store: rel %d has unknown type token %d", id, rec.Type)
	}
	props, err := r.propChain(rec.FirstProp)
	if err != nil {
		return RelData{}, err
	}
	return RelData{
		ID: id, Type: r.relType[rec.Type],
		StartNode: rec.StartNode, EndNode: rec.EndNode,
		Tombstone: rec.Tombstone, Props: props, CommitTS: rec.CommitTS,
	}, nil
}

// dynChain reads a whole dynamic chain starting at head into r.raw, which
// the next call overwrites.
func (r *reader) dynChain(head ids.ID) ([]byte, error) {
	r.raw = r.raw[:0]
	for id, hops := head, 0; id != ids.NoID; hops++ {
		if hops > 1<<20 {
			return nil, fmt.Errorf("store: dynamic chain cycle at %d", id)
		}
		buf, err := r.dyn.record(id)
		if err != nil {
			return nil, err
		}
		d, err := record.DecodeDyn(buf)
		if err != nil {
			return nil, err
		}
		if !d.InUse {
			return nil, fmt.Errorf("%w: dynamic record %d", ErrNotFound, id)
		}
		r.raw = append(r.raw, d.Payload...)
		id = d.Next
	}
	return r.raw, nil
}

// propChain reads a property chain into its packed form: each record's
// key name and value bytes, as they lie in the record or its spill chain,
// appended to r.fields, then checked and copied once.
func (r *reader) propChain(head ids.ID) (value.Packed, error) {
	r.fields = r.fields[:0]
	n := 0
	for id := head; id != ids.NoID; n++ {
		if n > 1<<20 {
			return value.Packed{}, fmt.Errorf("store: property chain cycle at %d", id)
		}
		buf, err := r.props.record(id)
		if err != nil {
			return value.Packed{}, err
		}
		p, err := record.DecodeProp(buf)
		if err != nil {
			return value.Packed{}, err
		}
		if !p.InUse {
			return value.Packed{}, fmt.Errorf("%w: property record %d", ErrNotFound, id)
		}
		if int(p.Key) >= len(r.keyNames) {
			return value.Packed{}, fmt.Errorf("store: property record %d has unknown key token %d", id, p.Key)
		}
		enc := p.Inline // in the pinned page; AppendField copies it
		if p.Spilled {
			if enc, err = r.dynChain(p.SpillRef); err != nil {
				return value.Packed{}, err
			}
		}
		if r.fields, err = value.AppendField(r.fields, r.keyNames[p.Key], enc); err != nil {
			return value.Packed{}, fmt.Errorf("store: property record %d: %w", id, err)
		}
		id = p.Next
	}
	props, err := value.DecodeFields(r.fields, n)
	if err != nil {
		return value.Packed{}, fmt.Errorf("store: property chain at %d: %w", head, err)
	}
	return props, nil
}

// labelChain loads a label set from a dynamic chain.
func (r *reader) labelChain(ref ids.ID) ([]string, error) {
	if ref == ids.NoID {
		return nil, nil
	}
	raw, err := r.dynChain(ref)
	if err != nil {
		return nil, err
	}
	if len(raw)%4 != 0 {
		return nil, fmt.Errorf("store: label chain %d has odd length %d", ref, len(raw))
	}
	labels := make([]string, 0, len(raw)/4)
	for off := 0; off < len(raw); off += 4 {
		tok := binary.LittleEndian.Uint32(raw[off:])
		if int(tok) >= len(r.labels) {
			return nil, fmt.Errorf("store: unknown label token %d", tok)
		}
		labels = append(labels, r.labels[tok])
	}
	return labels, nil
}

// scan walks f below its high water page by page and calls visit with
// every record in use, in ID order: its bytes lie in the pinned page, and r
// reads its chains. The store must have no writer, as at Open, and visit
// runs with a page of up to three files pinned: what it reads of the store
// itself needs room in the caches beside them. The first error ends the
// scan.
func (s *Store) scan(f *recordFile, visit func(r *reader, id ids.ID, rec []byte) error) error {
	r := s.newReader()
	defer r.release()
	c := newCursor(f)
	defer c.release()
	for id := ids.ID(0); id < c.hw; id++ {
		rec, err := c.record(id)
		if err != nil {
			return err
		}
		if rec[0]&record.FlagInUse == 0 {
			continue
		}
		if err := visit(r, id, rec); err != nil {
			return err
		}
	}
	return nil
}

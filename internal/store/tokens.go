package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"

	"neograph/internal/faultfs"
)

// Token namespaces. Labels, relationship types and property keys each have
// their own dense uint32 token space, as in Neo4j. Tokens are never
// deleted (paper §4: "properties and labels are never deleted in Neo4j
// even if no node/relationship is using them").
type TokenKind uint8

const (
	TokenLabel TokenKind = iota
	TokenRelType
	TokenPropKey
	tokenKinds
)

// ErrBadTokenFile reports a corrupt token store file.
var ErrBadTokenFile = errors.New("store: bad token file")

// tokenMagic opens the token file; its last byte is the format of the
// whole store. The header is written when the store is created, before any
// record file, so a directory written in another format is refused here,
// by name, before a record of it is read at the wrong stride. Format 2
// took the relationship chains out of the node and relationship records;
// format 3 moved the commit timestamp from a property record into them.
var tokenMagic = [8]byte{'n', 'g', 't', 'k', 0, 0, 0, 3}

// Tokens is the persistent registry mapping names to dense uint32 tokens,
// one namespace per TokenKind. It is safe for concurrent use; writes are
// append-only.
type Tokens struct {
	mu     sync.RWMutex
	path   string
	fs     faultfs.FS
	byName [tokenKinds]map[string]uint32
	byID   [tokenKinds][]string
}

// OpenTokens loads (or creates) the token registry at path through fs.
func OpenTokens(fs faultfs.FS, path string) (*Tokens, error) {
	t := &Tokens{path: path, fs: faultfs.OrOS(fs)}
	for k := range t.byName {
		t.byName[k] = make(map[string]uint32)
	}
	buf, err := t.fs.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("store: open tokens %s: %w", path, err)
	}
	if len(buf) < len(tokenMagic) {
		// A new store, or one whose creation a crash cut short: anything
		// from no file to a prefix of the header. Nothing can follow a
		// partial header, so the file is written anew, header alone.
		// Bytes that are NOT a magic prefix mean the file was never ours:
		// stay fatal.
		if string(buf) != string(tokenMagic[:len(buf)]) {
			return nil, fmt.Errorf("%w: %s", ErrBadTokenFile, path)
		}
		if err := t.create(); err != nil {
			return nil, err
		}
		return t, nil
	}
	if string(buf[:7]) != string(tokenMagic[:7]) {
		return nil, fmt.Errorf("%w: %s", ErrBadTokenFile, path)
	}
	if buf[7] != tokenMagic[7] {
		return nil, fmt.Errorf("store: %s: store format %d, this build reads %d", path, buf[7], tokenMagic[7])
	}
	off := 8
	for off < len(buf) {
		entryStart := off
		if off+7 > len(buf) {
			// Torn tail: the process died mid-append. Appends are
			// single-writer and O_APPEND, so a partial entry can only be
			// the last one; drop it and physically cut the file so future
			// appends stay aligned with the parse offset. (Mid-file
			// corruption cannot produce this shape — it trips the kind or
			// dense-id checks below instead, which stay fatal.)
			if err := t.repair(int64(entryStart)); err != nil {
				return nil, err
			}
			break
		}
		kind := TokenKind(buf[off])
		if kind >= tokenKinds {
			return nil, fmt.Errorf("%w: %s: bad kind %d", ErrBadTokenFile, path, kind)
		}
		id := binary.LittleEndian.Uint32(buf[off+1:])
		nameLen := int(binary.LittleEndian.Uint16(buf[off+5:]))
		off += 7
		if off+nameLen > len(buf) {
			if err := t.repair(int64(entryStart)); err != nil {
				return nil, err
			}
			break
		}
		name := string(buf[off : off+nameLen])
		off += nameLen
		if int(id) != len(t.byID[kind]) {
			return nil, fmt.Errorf("%w: %s: non-dense token id %d", ErrBadTokenFile, path, id)
		}
		t.byName[kind][name] = id
		t.byID[kind] = append(t.byID[kind], name)
	}
	return t, nil
}

// Get returns the token for name in the given namespace, creating and
// persisting it if absent.
func (t *Tokens) Get(kind TokenKind, name string) (uint32, error) {
	t.mu.RLock()
	id, ok := t.byName[kind][name]
	t.mu.RUnlock()
	if ok {
		return id, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok = t.byName[kind][name]; ok { // raced
		return id, nil
	}
	id = uint32(len(t.byID[kind]))
	if err := t.appendEntry(kind, id, name); err != nil {
		return 0, err
	}
	name = strings.Clone(name) // it may share a property list's bytes
	t.byName[kind][name] = id
	t.byID[kind] = append(t.byID[kind], name)
	return id, nil
}

// Lookup returns the token for name without creating it.
func (t *Tokens) Lookup(kind TokenKind, name string) (uint32, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	id, ok := t.byName[kind][name]
	return id, ok
}

// Name returns the name of token id, or "" if unknown.
func (t *Tokens) Name(kind TokenKind, id uint32) (string, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if int(id) >= len(t.byID[kind]) {
		return "", false
	}
	return t.byID[kind][id], true
}

// names returns a namespace's names indexed by token id, as of now. The
// table only ever grows past the slice's end, so the caller may read it
// without the lock.
func (t *Tokens) names(kind TokenKind) []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.byID[kind]
}

// Count returns the number of tokens in a namespace.
func (t *Tokens) Count(kind TokenKind) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.byID[kind])
}

// All returns all names in a namespace, indexed by token id.
func (t *Tokens) All(kind TokenKind) []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	cp := make([]string, len(t.byID[kind]))
	copy(cp, t.byID[kind])
	return cp
}

// repair truncates the token file to size, dropping a torn tail left by
// a crash mid-append. The cut must be physical: appends use O_APPEND, so
// leaving the partial entry in place would misalign every future append
// against the parse offset forever.
func (t *Tokens) repair(size int64) error {
	f, err := t.fs.OpenFile(t.path, os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: repair tokens %s: %w", t.path, err)
	}
	defer f.Close()
	if err := f.Truncate(size); err != nil {
		return fmt.Errorf("store: repair tokens %s: %w", t.path, err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("store: repair tokens %s: %w", t.path, err)
	}
	return nil
}

// create writes the token file of a new store: the header, no tokens.
func (t *Tokens) create() error {
	f, err := t.fs.OpenFile(t.path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: create tokens %s: %w", t.path, err)
	}
	defer f.Close()
	if _, err := f.Write(tokenMagic[:]); err != nil {
		return fmt.Errorf("store: create tokens %s: %w", t.path, err)
	}
	return f.Sync()
}

// appendEntry persists one new token. Caller holds t.mu. The file is
// written append-only, after the header Open wrote.
func (t *Tokens) appendEntry(kind TokenKind, id uint32, name string) error {
	f, err := t.fs.OpenFile(t.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: append token: %w", err)
	}
	defer f.Close()
	buf := []byte{byte(kind)}
	buf = binary.LittleEndian.AppendUint32(buf, id)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(name)))
	buf = append(buf, name...)
	if _, err := f.Write(buf); err != nil {
		return fmt.Errorf("store: append token: %w", err)
	}
	return f.Sync()
}

package core

import (
	"strings"
	"sync"
)

// Token namespaces for the in-memory token table backing the indexes.
type tokKind uint8

const (
	tokLabel tokKind = iota
	tokPropKey
	tokRelType // interned only (name): relationship types have no index
	tokKinds
)

// tokenTable maps names to dense uint32 tokens, one namespace per kind.
// It mirrors the paper's observation that labels and properties are never
// deleted: entries only grow. The table is rebuilt during recovery (it is
// derived state), so it needs no persistence of its own.
type tokenTable struct {
	mu sync.RWMutex
	m  [tokKinds]map[string]uint32
	n  [tokKinds][]string
}

func newTokenTable() *tokenTable {
	t := &tokenTable{}
	for k := range t.m {
		t.m[k] = make(map[string]uint32)
	}
	return t
}

// get returns (assigning if new) the token for name.
func (t *tokenTable) get(kind tokKind, name string) uint32 {
	t.mu.RLock()
	id, ok := t.m[kind][name]
	t.mu.RUnlock()
	if ok {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok = t.m[kind][name]; ok {
		return id
	}
	id = uint32(len(t.n[kind]))
	name = strings.Clone(name) // it may share a property list's bytes
	t.m[kind][name] = id
	t.n[kind] = append(t.n[kind], name)
	return id
}

// name returns the table's own copy of the name spelled by b, registering
// it if new: every version decoded from a log record then shares one
// string per label and type instead of allocating its own. A nil table
// just copies.
func (t *tokenTable) name(kind tokKind, b []byte) string {
	if t == nil {
		return string(b)
	}
	t.mu.RLock()
	id, ok := t.m[kind][string(b)]
	if ok {
		s := t.n[kind][id]
		t.mu.RUnlock()
		return s
	}
	t.mu.RUnlock()
	s := string(b)
	t.get(kind, s)
	return s
}

// lookup returns the token for name without assigning.
func (t *tokenTable) lookup(kind tokKind, name string) (uint32, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	id, ok := t.m[kind][name]
	return id, ok
}

// count returns the number of tokens in a namespace.
func (t *tokenTable) count(kind tokKind) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.n[kind])
}

// Package partition implements the hash-partitioned vertex space: a
// static, versioned topology mapping entity IDs to partitions
// (id % Count), and a two-phase-commit coordinator giving
// cross-partition transactions atomicity on top of each partition's
// existing single-partition commit path.
//
// Each partition is one replication group (a primary and its replicas)
// running the unmodified single-partition stack; the partition layer
// adds ID striding (each partition allocates only its own congruence
// class), prepare/decide records in the WAL, and client-side routing.
package partition

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"neograph/internal/wire"
)

// Topology is a node's current view of the partition map, safe for
// concurrent use. Maps are versioned: Adopt keeps the highest version
// seen, so topology changes propagate through cluster_status gossip
// without config pushes.
type Topology struct {
	mu sync.RWMutex
	pm wire.PartitionMap
}

// NewTopology wraps a partition map. A zero-count map means
// unpartitioned (PartitionOf always 0).
func NewTopology(pm wire.PartitionMap) *Topology {
	return &Topology{pm: pm}
}

// ParsePeers parses the -partition-peers flag format:
//
//	0=host1:7475,host2:7475;1=host3:7475,host4:7475
//
// — semicolon-separated groups, each "id=addr[,addr...]". Partition IDs
// must be exactly 0..n-1. The resulting map has Version 1.
func ParsePeers(spec string) (wire.PartitionMap, error) {
	var pm wire.PartitionMap
	if strings.TrimSpace(spec) == "" {
		return pm, fmt.Errorf("partition: empty peers spec")
	}
	seen := make(map[uint32]bool)
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		eq := strings.IndexByte(part, '=')
		if eq < 0 {
			return pm, fmt.Errorf("partition: bad group %q (want id=addr,addr)", part)
		}
		id64, err := strconv.ParseUint(strings.TrimSpace(part[:eq]), 10, 32)
		if err != nil {
			return pm, fmt.Errorf("partition: bad partition id in %q: %w", part, err)
		}
		id := uint32(id64)
		if seen[id] {
			return pm, fmt.Errorf("partition: duplicate partition id %d", id)
		}
		seen[id] = true
		var addrs []string
		for _, a := range strings.Split(part[eq+1:], ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		if len(addrs) == 0 {
			return pm, fmt.Errorf("partition: partition %d has no addresses", id)
		}
		pm.Groups = append(pm.Groups, wire.PartitionGroup{ID: id, Addrs: addrs})
	}
	pm.Count = len(pm.Groups)
	for id := 0; id < pm.Count; id++ {
		if !seen[uint32(id)] {
			return pm, fmt.Errorf("partition: ids must be contiguous 0..%d, missing %d", pm.Count-1, id)
		}
	}
	sort.Slice(pm.Groups, func(i, j int) bool { return pm.Groups[i].ID < pm.Groups[j].ID })
	pm.Version = 1
	return pm, nil
}

// Count returns the partition count (0 when unpartitioned).
func (t *Topology) Count() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.pm.Count
}

// PartitionOf maps an entity ID to its owning partition.
func (t *Topology) PartitionOf(id uint64) uint32 {
	return wire.OwnerOf(id, t.Count())
}

// Addrs returns the client-facing addresses of one partition's
// replication group (a copy).
func (t *Topology) Addrs(part uint32) []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, g := range t.pm.Groups {
		if g.ID == part {
			return append([]string(nil), g.Addrs...)
		}
	}
	return nil
}

// Map returns a copy of the current partition map.
func (t *Topology) Map() wire.PartitionMap {
	t.mu.RLock()
	defer t.mu.RUnlock()
	pm := t.pm
	pm.Groups = make([]wire.PartitionGroup, len(t.pm.Groups))
	for i, g := range t.pm.Groups {
		pm.Groups[i] = wire.PartitionGroup{ID: g.ID, Addrs: append([]string(nil), g.Addrs...)}
	}
	return pm
}

// Adopt installs pm if it is newer than the current map; reports
// whether the topology changed.
func (t *Topology) Adopt(pm *wire.PartitionMap) bool {
	if pm == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if pm.Version <= t.pm.Version && t.pm.Count > 0 {
		return false
	}
	cp := *pm
	cp.Groups = make([]wire.PartitionGroup, len(pm.Groups))
	for i, g := range pm.Groups {
		cp.Groups[i] = wire.PartitionGroup{ID: g.ID, Addrs: append([]string(nil), g.Addrs...)}
	}
	t.pm = cp
	return true
}

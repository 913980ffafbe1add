package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"

	"neograph/internal/workload"
)

// op is one pre-generated transaction. The fields index into the loaded
// graph (person indexes, never node IDs), so a stream is a pure function
// of the seed and the program under test sees only generated inputs.
//
// Every node a client writes has an index congruent to the client number
// modulo clients, so the two clients' write sets are disjoint by
// construction: a write conflict in a run is never genuine contention.
type op struct {
	Write bool
	// Cross marks a fleet write that spans both partitions (2PC).
	Cross bool
	// Rel marks a mix write that also adds a TRANSFERRED relationship.
	Rel bool
	// Part is the partition a fleet read or single-partition write addresses.
	Part uint8
	// Amt is the amount a transfer moves.
	Amt uint8
	// N holds person indexes; which are used depends on the workload:
	//   mix read      N[0]            write  N[0] -> N[1]
	//   traverse read N[0]            write  N[0] -> N[1..4]
	//   fleet read    N[0]            write  N[0..6] (cross: N[0..2] on partition 0, N[3..5] on 1)
	N [7]uint32
}

// streamTag separates the seeds of the workloads' streams. embed_mix and
// remote_mix share one, so they replay the identical stream.
func streamTag(k kind) int64 {
	if k == kindRemote {
		k = kindEmbed
	}
	return int64(k) + 1
}

// genStream generates n ops for one client over a graph of scale people. writesOnly yields the aging
// pass's stream: the same generator with every op a write, on its own seed.
func genStream(w *workloadDef, seed int64, client, n, scale int, writesOnly bool) []op {
	s := seed*1_000_003 + streamTag(w.kind)*10_007 + int64(client)*101
	if writesOnly {
		s += 7
	}
	r := rand.New(rand.NewSource(s))
	per := scale / w.parts
	reads := workload.NewPicker(per, w.theta, s+1)
	// The picker's hottest ranks are 0, 1, 2, …, and in the generated graph
	// those are the first persons created, who know almost nobody: a read
	// of them is trivially cheap. A fixed shuffle (the same for every seed)
	// makes the hot persons ordinary ones, so that the median read is not
	// balanced on the edge between the two kinds.
	hot := rand.New(rand.NewSource(graphSeed)).Perm(per)
	// own picks a person this client may write.
	own := func() uint32 { return uint32(clients*r.Intn(per/clients) + client) }
	// ownDistinct fills dst with distinct writable persons.
	ownDistinct := func(dst []uint32) {
		for i := range dst {
		again:
			dst[i] = own()
			for j := 0; j < i; j++ {
				if dst[j] == dst[i] {
					goto again
				}
			}
		}
	}
	ops := make([]op, n)
	writes := 0
	for i := range ops {
		o := &ops[i]
		o.Write = writesOnly || r.Float64() < w.writeFrac
		o.Part = uint8(r.Intn(w.parts))
		if !o.Write {
			o.N[0] = uint32(hot[reads.Pick()])
			continue
		}
		writes++
		switch w.kind {
		case kindEmbed, kindRemote:
			ownDistinct(o.N[:2])
			o.Amt = uint8(1 + r.Intn(10))
			o.Rel = writes%4 == 0
		case kindTraverse:
			ownDistinct(o.N[:5])
		case kindFleet:
			o.Cross = writes%10 == 0
			if o.Cross {
				ownDistinct(o.N[:3])
				ownDistinct(o.N[3:6])
			} else {
				ownDistinct(o.N[:7])
			}
		}
	}
	return ops
}

// streamHash identifies a stream: same seed, same hash.
func streamHash(ops []op) string {
	h := sha256.New()
	var buf [5 + 7*4]byte
	for i := range ops {
		o := &ops[i]
		buf[0], buf[1], buf[2] = b2u(o.Write), b2u(o.Cross), b2u(o.Rel)
		buf[3], buf[4] = o.Part, o.Amt
		for j, n := range o.N {
			binary.LittleEndian.PutUint32(buf[5+4*j:], n)
		}
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func b2u(b bool) byte {
	if b {
		return 1
	}
	return 0
}

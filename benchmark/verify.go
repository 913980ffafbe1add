package main

import (
	"context"
	"fmt"
	"slices"

	"neograph"
	"neograph/client"
	"neograph/internal/query"
	"neograph/internal/workload"
)

const khopChecks = 100

// verify checks the run against the invariants the op streams preserve.
// Every mismatch counts as a failed op. It runs on the quiesced system,
// then crashes it — discarding whatever no fsync covered — reopens it, and
// checks again: nothing a client was told had committed may be missing.
// whileDown, when set, runs between the crash and the reopen.
func verify(ctx context.Context, p *prepared, rep *report, whileDown func() error) error {
	if err := p.s.syncReplicas(); err != nil {
		return err
	}
	if err := checkInvariants(p, rep, "quiesced"); err != nil {
		return err
	}
	if err := checkKHop(ctx, p, rep); err != nil {
		return err
	}
	if err := p.s.crash(); err != nil {
		return err
	}
	if whileDown != nil {
		if err := whileDown(); err != nil {
			return err
		}
	}
	if err := p.s.open(ctx); err != nil {
		return fmt.Errorf("reopen after final crash: %w", err)
	}
	return checkInvariants(p, rep, "after crash")
}

// intProp reads an integer property of a node through an embedded snapshot.
func intProp(tx *neograph.Tx, id neograph.NodeID, key string) (int64, error) {
	n, err := tx.GetNode(id)
	if err != nil {
		return 0, err
	}
	v, ok := n.Props[key].AsInt()
	if !ok {
		return 0, fmt.Errorf("node %d: property %s is %v, not an integer", id, key, n.Props[key])
	}
	return v, nil
}

// checkInvariants checks, on every partition's primary:
//   - the balances still sum to 1000 per person (transfers conserve money);
//   - every client's ledger carries a stamp at least as new as the newest
//     write the client saw acknowledged (no acknowledged commit lost);
//   - a client's cross-partition stamp is the same on both partitions
//     (a 2PC batch is on both or on neither) and not older than the newest
//     acknowledged one.
func checkInvariants(p *prepared, rep *report, when string) error {
	g := p.s.g
	xseq := make([][]int64, clients)
	for part, db := range p.s.primaries() {
		err := db.View(func(tx *neograph.Tx) error {
			var sum int64
			for _, id := range g.people[part] {
				b, err := intProp(tx, id, "balance")
				if err != nil {
					return err
				}
				sum += b
			}
			if want := int64(len(g.people[part])) * 1000; sum != want {
				rep.problem("%s: partition %d balances sum to %d, want %d", when, part, sum, want)
			}
			for c := 0; c < clients; c++ {
				seq, err := intProp(tx, g.ledger[c][part], "seq")
				if err != nil {
					return err
				}
				if acked := p.r.st[c].acked[part]; seq < acked {
					rep.problem("%s: client %d partition %d: ledger at %d but write %d was acknowledged", when, c, part, seq, acked)
				}
				x, err := intProp(tx, g.ledger[c][part], "xseq")
				if err != nil {
					return err
				}
				xseq[c] = append(xseq[c], x)
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("verify %s: partition %d: %w", when, part, err)
		}
	}
	for c, xs := range xseq {
		for _, x := range xs {
			if x != xs[0] {
				rep.problem("%s: client %d: cross-partition stamp differs between partitions: %v", when, c, xs)
				break
			}
		}
		if acked := p.r.st[c].ackedX; xs[0] < acked {
			rep.problem("%s: client %d: cross-partition stamp %d but batch %d was acknowledged", when, c, xs[0], acked)
		}
	}
	return nil
}

// checkKHop compares khopChecks two-hop queries, run through the
// workload's own query path without a row limit, with the embedded
// breadth-first reference query.Reachable on the same quiesced data.
func checkKHop(ctx context.Context, p *prepared, rep *report) error {
	s := p.s
	for i := 0; i < khopChecks; i++ {
		part := i % s.w.parts
		idx := (i * 7919) % len(s.g.people[part])
		start := s.g.people[part][idx]
		var want []neograph.NodeID
		db := s.groups[part].primary.db
		err := db.View(func(tx *neograph.Tx) (err error) {
			want, err = query.Reachable(tx, start, neograph.Outgoing, 2, workload.RelKnows)
			return err
		})
		if err != nil {
			return fmt.Errorf("verify k-hop reference: %w", err)
		}
		var got []neograph.NodeID
		collect := func(id neograph.NodeID, depth int) {
			if depth > 0 {
				got = append(got, id)
			}
		}
		switch s.w.kind {
		case kindEmbed:
			err = db.View(func(tx *neograph.Tx) error {
				return query.Run(tx, khopPlan(start, 0), func(r query.Row) error { collect(r.ID, r.Depth); return nil })
			})
		case kindFleet:
			err = s.router.Pool(uint32(part)).Query(ctx, token(0), khopQuery(start, 0), func(st *client.QueryStream) error {
				for st.Next() {
					collect(st.Row().ID, st.Row().Depth)
				}
				return st.Err()
			})
		default:
			var st *client.QueryStream
			if st, err = s.conns[0].Query(ctx, khopQuery(start, 0)); err == nil {
				for st.Next() {
					collect(st.Row().ID, st.Row().Depth)
				}
				err = st.Err()
				st.Close()
			}
		}
		if err != nil {
			rep.problem("k-hop query from person %d: %v", idx, err)
			continue
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			rep.problem("k-hop query from person %d: %d rows, the reference has %d", idx, len(got), len(want))
		}
	}
	return nil
}

// Package workload builds synthetic graphs and operation streams for the
// experiments (internal/bench) and the benchmark (benchmark/). The paper
// has no public workload; these generators are the substitution: a
// social-style graph (preferential attachment, the shape Neo4j
// deployments are measured on) with Zipf-skewed access so lock/version
// contention is controllable.
package workload

import (
	"fmt"
	"math/rand"

	"neograph"
)

// SocialConfig sizes the generated graph.
type SocialConfig struct {
	// People is the number of Person nodes.
	People int
	// AvgFriends is the mean outgoing KNOWS degree (preferential
	// attachment, so the in-degree distribution is heavy-tailed).
	AvgFriends int
	// Seed makes generation deterministic.
	Seed int64
	// BatchSize is nodes/rels per committing transaction (default 256).
	BatchSize int
}

// Labels and relationship types used by the generator.
const (
	LabelPerson = "Person"
	RelKnows    = "KNOWS"
)

// SocialGraph is the generated graph's handle: node IDs indexed densely.
type SocialGraph struct {
	People []neograph.NodeID
	Rels   []neograph.RelID
}

// BuildSocial populates db with a social graph per cfg.
func BuildSocial(db *neograph.DB, cfg SocialConfig) (*SocialGraph, error) {
	if cfg.People <= 0 {
		return nil, fmt.Errorf("workload: People must be positive")
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 256
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	g := &SocialGraph{People: make([]neograph.NodeID, 0, cfg.People)}

	// Nodes in committing batches.
	for start := 0; start < cfg.People; start += cfg.BatchSize {
		end := start + cfg.BatchSize
		if end > cfg.People {
			end = cfg.People
		}
		err := db.Update(0, func(tx *neograph.Tx) error {
			for i := start; i < end; i++ {
				id, err := tx.CreateNode([]string{LabelPerson}, neograph.Props{
					"uid":     neograph.Int(int64(i)),
					"name":    neograph.String(fmt.Sprintf("person-%d", i)),
					"balance": neograph.Int(1000),
				})
				if err != nil {
					return err
				}
				g.People = append(g.People, id)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	// Preferential attachment: each new person links to AvgFriends
	// targets chosen proportionally to current degree (approximated by
	// sampling an endpoint of a random existing edge, falling back to
	// uniform).
	type edge struct{ a, b int }
	var edges []edge
	addBatch := make([]edge, 0, cfg.BatchSize)
	flush := func() error {
		if len(addBatch) == 0 {
			return nil
		}
		batch := addBatch
		addBatch = addBatch[:0]
		return db.Update(0, func(tx *neograph.Tx) error {
			for _, e := range batch {
				id, err := tx.CreateRel(RelKnows, g.People[e.a], g.People[e.b], neograph.Props{
					"weight": neograph.Float(r.Float64()),
				})
				if err != nil {
					return err
				}
				g.Rels = append(g.Rels, id)
			}
			return nil
		})
	}
	for i := 1; i < cfg.People; i++ {
		k := cfg.AvgFriends
		if k <= 0 {
			k = 1
		}
		for f := 0; f < k; f++ {
			var target int
			if len(edges) > 0 && r.Intn(2) == 0 {
				e := edges[r.Intn(len(edges))]
				target = e.b
				if r.Intn(2) == 0 {
					target = e.a
				}
			} else {
				target = r.Intn(i)
			}
			if target == i {
				continue
			}
			edges = append(edges, edge{i, target})
			addBatch = append(addBatch, edge{i, target})
			if len(addBatch) >= cfg.BatchSize {
				if err := flush(); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return g, nil
}

// Picker selects node indices with configurable skew. Theta 0 is uniform;
// larger theta concentrates load on few hot nodes (Zipf).
type Picker struct {
	n    int
	zipf *rand.Zipf
	r    *rand.Rand
}

// NewPicker builds a picker over [0, n) with Zipf parameter theta.
// theta <= 0 yields the uniform distribution; otherwise the Zipf s
// parameter is 1+theta (math/rand requires s > 1).
func NewPicker(n int, theta float64, seed int64) *Picker {
	p := &Picker{n: n, r: rand.New(rand.NewSource(seed))}
	if theta > 0 {
		p.zipf = rand.NewZipf(p.r, 1+theta, 1, uint64(n-1))
	}
	return p
}

// Pick returns the next index.
func (p *Picker) Pick() int {
	if p.zipf == nil {
		return p.r.Intn(p.n)
	}
	return int(p.zipf.Uint64())
}

// Rand exposes the picker's random source for auxiliary choices.
func (p *Picker) Rand() *rand.Rand { return p.r }

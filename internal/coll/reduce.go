package coll

import (
	"mpicollpred/internal/netmodel"
	"mpicollpred/internal/sim"
)

// Reduce verification convention: block 0 is the whole vector; rank r
// contributes mask 1<<r; at the end the ROOT must hold the full mask (other
// ranks hold partials). Reduce is not part of the paper's datasets but the
// libraries provide it, and the selection framework is generic over
// collectives — these generators extend the portfolio accordingly.

// ReduceLinear is the basic linear reduce: every rank sends its vector to
// the root, which accumulates them in rank order. No parameters.
func ReduceLinear(b *sim.Builder, topo netmodel.Topology, m int64, _ Params) {
	p := topo.P()
	if p <= 1 {
		return
	}
	for r := 1; r < p; r++ {
		b.Send(r, Root, m, pay1(b, 0, maskOf(r))...)
		b.Recv(Root, r, m)
		b.Compute(Root, m)
	}
}

// ReduceBinomial reduces over a binomial tree. No parameters.
func ReduceBinomial(b *sim.Builder, topo netmodel.Topology, m int64, _ Params) {
	p := topo.P()
	if p <= 1 {
		return
	}
	reduceTree(b, knomialTree(p, 2), m)
}

// ReduceKnomial reduces over a k-nomial tree. Parameter: Fanout (radix).
func ReduceKnomial(b *sim.Builder, topo netmodel.Topology, m int64, prm Params) {
	p := topo.P()
	if p <= 1 {
		return
	}
	radix := prm.Fanout
	if radix < 2 {
		radix = 2
	}
	reduceTree(b, knomialTree(p, radix), m)
}

// ReducePipelined is the segmented binomial reduce: segments flow up the
// tree in a pipeline, with the partial reduction computed per segment —
// the large-message workhorse. Parameter: Seg.
func ReducePipelined(b *sim.Builder, topo netmodel.Topology, m int64, prm Params) {
	p := topo.P()
	if p <= 1 {
		return
	}
	t := knomialTree(p, 2)
	segs := segRuns(m, prm.Seg)
	// Each segment independently accumulates the sender's whole subtree,
	// so every message of rank r carries r's subtree contribution mask.
	subtree := make([]uint64, p)
	for r := range subtree {
		subtree[r] = maskOf(r)
	}
	for r := p - 1; r >= 1; r-- {
		subtree[t.parent[r]] |= subtree[r]
	}
	for r := p - 1; r >= 0; r-- {
		repeatSegs(b, r, segs, func(sz int64, _ int32) {
			for i := len(t.children[r]) - 1; i >= 0; i-- {
				b.Recv(r, t.children[r][i], sz)
				b.Compute(r, sz)
			}
			if t.parent[r] >= 0 {
				b.Send(r, t.parent[r], sz, pay1(b, 0, subtree[r])...)
			}
		})
	}
}

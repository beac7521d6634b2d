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
	ReducePipelined(b, topo, m, Params{})
}

// ReduceKnomial reduces over a k-nomial tree. Parameter: Fanout (radix).
func ReduceKnomial(b *sim.Builder, topo netmodel.Topology, m int64, prm Params) {
	ranks := allRanks(topo.P())
	reduceTree(b, ranks, knomialTree(len(ranks), prm.Fanout), segRuns(m, 0), ownMasks(ranks))
}

// ReducePipelined is the segmented binomial reduce: segments flow up the
// tree in a pipeline, with the partial reduction computed per segment —
// the large-message workhorse. Each segment independently accumulates the
// sender's whole subtree, so every message carries its subtree's mask.
// Parameter: Seg.
func ReducePipelined(b *sim.Builder, topo netmodel.Topology, m int64, prm Params) {
	ranks := allRanks(topo.P())
	reduceTree(b, ranks, knomialTree(len(ranks), 2), segRuns(m, prm.Seg), ownMasks(ranks))
}

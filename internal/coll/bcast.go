package coll

import (
	"mpicollpred/internal/netmodel"
	"mpicollpred/internal/sim"
)

// Broadcast verification convention: logical block s = segment (or chunk) s
// of the root's buffer, contribution mask 1 (only the root contributes).
// The root initially holds every block; afterwards every rank must.

// BcastLinear is the basic linear broadcast: the root sends the full
// message to every other rank, one after another. No parameters.
func BcastLinear(b *sim.Builder, topo netmodel.Topology, m int64, _ Params) {
	p := topo.P()
	for r := 1; r < p; r++ {
		b.Send(Root, r, m, pay1(b, 0, 1)...)
		b.Recv(r, Root, m)
	}
}

// BcastChain is the chain (multi-chain pipeline) broadcast: the non-root
// ranks are split into Fanout contiguous chains; segments flow down each
// chain, every rank forwarding each segment to its successor. Parameters:
// Seg (segment size) and Fanout (number of chains, >= 1).
func BcastChain(b *sim.Builder, topo netmodel.Topology, m int64, prm Params) {
	p := topo.P()
	if p <= 1 {
		return
	}
	nchains := min(max(prm.Fanout, 1), p-1)
	// The chains form a tree: the root's children are the chain heads, every
	// other member's only child its successor. Contiguous chains of ranks
	// 1..p-1 keep chain neighbours on the same node under block placement.
	ranks := allRanks(p)
	t := tree{parent: make([]int, p), children: make([][]int, p)}
	t.parent[Root] = -1
	start := 1
	for c := 0; c < nchains; c++ {
		length := (p - 1) / nchains
		if c < (p-1)%nchains {
			length++
		}
		t.parent[start] = Root
		t.children[Root] = append(t.children[Root], start)
		for r := start + 1; r < start+length; r++ {
			t.parent[r], t.children[r-1] = r-1, ranks[r:r+1]
		}
		start += length
	}
	bcastTree(b, ranks, t, segRuns(m, prm.Seg), 1)
}

// BcastPipeline is the single-chain pipelined broadcast. Parameter: Seg.
func BcastPipeline(b *sim.Builder, topo netmodel.Topology, m int64, prm Params) {
	BcastChain(b, topo, m, Params{Seg: prm.Seg, Fanout: 1})
}

// BcastBinomial is the segmented binomial-tree broadcast. Parameter: Seg.
func BcastBinomial(b *sim.Builder, topo netmodel.Topology, m int64, prm Params) {
	BcastKnomial(b, topo, m, Params{Seg: prm.Seg, Fanout: 2})
}

// BcastKnomial is the k-nomial-tree broadcast. Parameters: Fanout (radix,
// >= 2) and Seg.
func BcastKnomial(b *sim.Builder, topo netmodel.Topology, m int64, prm Params) {
	p := topo.P()
	bcastTree(b, allRanks(p), knomialTree(p, prm.Fanout), segRuns(m, prm.Seg), 1)
}

// BcastBinary is the segmented binary-tree broadcast. Parameter: Seg.
func BcastBinary(b *sim.Builder, topo netmodel.Topology, m int64, prm Params) {
	p := topo.P()
	bcastTree(b, allRanks(p), binaryTree(p), segRuns(m, prm.Seg), 1)
}

// BcastSplitBinary is the split binary-tree broadcast: the message is split
// in two halves; the root pipelines the first half down its left subtree and
// the second half down its right subtree; afterwards ranks from the two
// subtrees pair up and exchange their halves. Parameter: Seg.
func BcastSplitBinary(b *sim.Builder, topo netmodel.Topology, m int64, prm Params) {
	p := topo.P()
	if p <= 1 {
		return
	}
	if p == 2 {
		// Degenerate: plain pipelined send.
		BcastBinary(b, topo, m, prm)
		return
	}
	t := binaryTree(p)
	mA := (m + 1) / 2
	mB := m - mA
	// Halves as verification blocks: block 0 = first half, 1 = second.
	segsA := segRuns(mA, prm.Seg)
	segsB := segRuns(mB, prm.Seg)

	// Subtree membership: ranks under child 1 get half A, under child 2
	// half B.
	side := make([]int, p) // 0 root, 1 = A, 2 = B
	var mark func(r, s int)
	mark = func(r, s int) {
		side[r] = s
		for _, c := range t.children[r] {
			mark(c, s)
		}
	}
	mark(1, 1)
	if p > 2 {
		mark(2, 2)
	}

	// Phase 1: pipeline half A down subtree 1 and half B down subtree 2.
	// Interleave the two pipelines segment by segment at the root.
	zipRuns(segsA, segsB, func(x, y int64, n int) {
		b.Repeat(Root, n, func(int) {
			if x >= 0 {
				b.Send(Root, 1, x, pay1(b, 0, 1)...)
			}
			if y >= 0 {
				b.Send(Root, 2, y, pay1(b, 1, 1)...)
			}
		})
	})
	for r := 1; r < p; r++ {
		segs, blk := segsA, int32(0)
		if side[r] == 2 {
			segs, blk = segsB, int32(1)
		}
		repeatSegs(b, r, segs, func(sz int64, _ int32) {
			b.Recv(r, t.parent[r], sz)
			for _, c := range t.children[r] {
				b.Send(r, c, sz, pay1(b, blk, 1)...)
			}
		})
	}

	// Phase 2: pair ranks across the two subtrees to exchange halves.
	var as, bs []int
	for r := 1; r < p; r++ {
		if side[r] == 1 {
			as = append(as, r)
		} else {
			bs = append(bs, r)
		}
	}
	n := len(as)
	if len(bs) < n {
		n = len(bs)
	}
	for i := 0; i < n; i++ {
		ra, rb := as[i], bs[i]
		// ra holds A, needs B; rb holds B, needs A. rb receives first,
		// then replies: deadlock-free with blocking sends.
		b.Send(ra, rb, mA, pay1(b, 0, 1)...)
		b.Recv(rb, ra, mA)
		b.Send(rb, ra, mB, pay1(b, 1, 1)...)
		b.Recv(ra, rb, mB)
	}
	// Unpaired leftovers get their missing half straight from the root.
	for i := n; i < len(as); i++ {
		b.Send(Root, as[i], mB, pay1(b, 1, 1)...)
		b.Recv(as[i], Root, mB)
	}
	for i := n; i < len(bs); i++ {
		b.Send(Root, bs[i], mA, pay1(b, 0, 1)...)
		b.Recv(bs[i], Root, mA)
	}
}

// scatterBinomial emits a binomial scatter of the p chunks (chunk r for
// rank r): each parent sends a child the contiguous chunk range of the
// child's subtree. Verification blocks are chunk indices.
func scatterBinomial(b *sim.Builder, p int, chunks []int64) {
	t := knomialTree(p, 2)
	for r := 0; r < p; r++ {
		if t.parent[r] >= 0 {
			b.Recv(r, t.parent[r], sumRange(chunks, r, r+t.span[r]))
		}
		for _, c := range t.children[r] {
			bytes := sumRange(chunks, c, c+t.span[c])
			var pay []sim.PayUnit
			if b.Verify() {
				for i := c; i < c+t.span[c]; i++ {
					pay = append(pay, sim.PayUnit{Block: int32(i), Mask: 1})
				}
			}
			b.Send(r, c, bytes, pay...)
		}
	}
}

// BcastScatterAllgather is the "scatter + recursive-doubling allgather"
// broadcast: a binomial scatter distributes chunk r to rank r, then a
// recursive-doubling allgather (with the standard non-power-of-two
// pre/post exchange) reassembles the full message everywhere. This is
// algorithm 8 of Open MPI 4.0.2's broadcast, the one the paper found buggy;
// our implementation is correct, and the library profile mirrors the
// paper by excluding it from the tuning search space.
func BcastScatterAllgather(b *sim.Builder, topo netmodel.Topology, m int64, _ Params) {
	p := topo.P()
	if p <= 1 {
		return
	}
	chunks := chunkSizes(m, p)
	scatterBinomial(b, p, chunks)
	rdAllgather(b, chunks, m)
}

// BcastScatterRingAllgather is the "scatter + ring allgather" broadcast:
// binomial scatter followed by a p-1 step ring allgather, the
// bandwidth-optimal broadcast for very large messages.
func BcastScatterRingAllgather(b *sim.Builder, topo netmodel.Topology, m int64, _ Params) {
	p := topo.P()
	if p <= 1 {
		return
	}
	chunks := chunkSizes(m, p)
	scatterBinomial(b, p, chunks)
	// Ring allgather: at step s, rank r sends chunk (r-s mod p) to r+1 and
	// receives chunk (r-1-s mod p) from r-1, the chunk it sends at step
	// s+1. So after sending its own chunk a rank receives and forwards
	// chunks r-1, r-2, ..., r-p+2, each run of equal sizes as one Repeat,
	// and last receives chunk r+1 (mod p), its successor's.
	rem := int(m % int64(p))
	for r := 0; r < p; r++ {
		dst, src := (r+1)%p, (r-1+p)%p
		b.SendNB(r, dst, chunks[r], pay1(b, int32(r), 1)...)
		for k := 0; k < p-2; {
			j := mod(r-1-k, p)
			n := min(chunkRun(j, rem, p), p-2-k)
			b.Repeat(r, n, func(i int) {
				c := mod(j-i, p)
				b.Recv(r, src, chunks[c])
				b.SendNB(r, dst, chunks[c], pay1(b, int32(c), 1)...)
			})
			k += n
		}
		b.Recv(r, src, chunks[dst])
	}
}

// BcastDoubleTree is the double binary tree broadcast: two binary trees — a
// primary rooted at rank 0 and a mirrored one rooted at rank p-1 — each
// pipeline one half of the message, so every link carries roughly half the
// total volume. The root first ships the second half to the mirror root.
// Parameter: Seg.
func BcastDoubleTree(b *sim.Builder, topo netmodel.Topology, m int64, prm Params) {
	p := topo.P()
	if p <= 2 {
		BcastBinomial(b, topo, m, prm)
		return
	}
	mA := (m + 1) / 2
	mB := m - mA
	t1 := binaryTree(p)
	// Mirror tree: rank r plays role p-1-r in a binary tree rooted at 0.
	mirror := func(r int) int { return p - 1 - r }

	// Hand half B to the mirror root.
	b.Send(Root, mirror(Root), mB, pay1(b, 1, 1)...)
	b.Recv(mirror(Root), Root, mB)

	segsA := segRuns(mA, prm.Seg)
	segsB := segRuns(mB, prm.Seg)
	// At step s tree 1 moves segment s of half A and tree 2 segment s of
	// half B. Per rank, tree-1 ops precede tree-2 ops within a step, giving
	// a consistent order across ranks (both trees are DAGs).
	for r := 0; r < p; r++ {
		role := mirror(r)
		zipRuns(segsA, segsB, func(x, y int64, n int) {
			b.Repeat(r, n, func(int) {
				if x >= 0 {
					if t1.parent[r] >= 0 {
						b.Recv(r, t1.parent[r], x)
					}
					for _, c := range t1.children[r] {
						b.Send(r, c, x, pay1(b, 0, 1)...)
					}
				}
				if y >= 0 {
					if t1.parent[role] >= 0 {
						b.Recv(r, mirror(t1.parent[role]), y)
					}
					for _, c := range t1.children[role] {
						b.Send(r, mirror(c), y, pay1(b, 1, 1)...)
					}
				}
			})
		})
	}
}

// BcastHierarchical is the topology-aware two-level broadcast: an inter-node
// broadcast over the node leaders (binomial, or k-nomial with the given
// Fanout) followed by an intra-node broadcast on every node (binomial over
// the node's ranks). Parameter: Seg segments both levels; Fanout sets the
// inter-node radix (0/2 = binomial).
func BcastHierarchical(b *sim.Builder, topo netmodel.Topology, m int64, prm Params) {
	segs := segRuns(m, prm.Seg)
	leaders, _ := leadersOf(topo)
	bcastTree(b, leaders, knomialTree(len(leaders), prm.Fanout), segs, 1)
	// The member lists make the intra-node phase correct under any rank
	// placement.
	nt := knomialTree(topo.PPN, 2)
	for _, ms := range nodeMembers(topo) {
		bcastTree(b, ms, nt, segs, 1)
	}
}

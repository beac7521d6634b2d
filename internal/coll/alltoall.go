package coll

import (
	"mpicollpred/internal/netmodel"
	"mpicollpred/internal/sim"
)

// Alltoall verification convention: m is the per-destination message size
// (as in the OSU benchmarks); logical block src*p+dst is the data rank src
// sends to rank dst, with contribution mask 1. Rank r initially holds
// blocks r*p+*, and must end holding blocks **p+r.

func a2aBlock(p, src, dst int) int32 { return int32(src*p + dst) }

// AlltoallLinear is the basic linear alltoall: every rank posts
// non-blocking sends to all peers (starting at rank+1, wrapping) and then
// receives from all peers. No parameters.
func AlltoallLinear(b *sim.Builder, topo netmodel.Topology, m int64, _ Params) {
	p := topo.P()
	if p <= 1 {
		return
	}
	for r := 0; r < p; r++ {
		for i := 1; i < p; i++ {
			dst := (r + i) % p
			b.SendNB(r, dst, m, pay1(b, a2aBlock(p, r, dst), 1)...)
		}
		for i := 1; i < p; i++ {
			src := (r - i + p) % p
			b.Recv(r, src, m)
		}
	}
}

// AlltoallPairwise is the pairwise-exchange alltoall: p-1 synchronized
// steps; in step s every rank exchanges with (rank+s) / (rank-s). No
// parameters.
func AlltoallPairwise(b *sim.Builder, topo netmodel.Topology, m int64, _ Params) {
	p := topo.P()
	if p <= 1 {
		return
	}
	for s := 1; s < p; s++ {
		for r := 0; r < p; r++ {
			dst := (r + s) % p
			src := (r - s + p) % p
			b.SendRecv(r, dst, m, src, m, pay1(b, a2aBlock(p, r, dst), 1)...)
		}
	}
}

// AlltoallBruck is Bruck's log-round alltoall: after a virtual local
// rotation, round k ships all blocks whose slot index has bit k set to rank
// (r + 2^k), halving the number of rounds at the price of forwarding data
// through intermediates. Strong for small messages on many processes. No
// parameters.
func AlltoallBruck(b *sim.Builder, topo netmodel.Topology, m int64, _ Params) {
	p := topo.P()
	if p <= 1 {
		return
	}
	// slot[r][i] = origin of the block currently held by rank r in slot i
	// (slot i means "destined for rank (r+i) mod p"). After the virtual
	// rotation every rank holds its own blocks: origin r in every slot.
	// Tracked only for verification payloads.
	var slot [][]int32
	if b.Verify() {
		slot = make([][]int32, p)
		for r := range slot {
			slot[r] = make([]int32, p)
			for i := range slot[r] {
				slot[r][i] = int32(r)
			}
		}
	}
	// Local rotation cost: one pass over the p*m buffer.
	for r := 0; r < p; r++ {
		b.Compute(r, int64(p)*m)
	}
	for dist := 1; dist < p; dist *= 2 {
		// Collect the slots with the dist bit set.
		var idx []int
		for i := 0; i < p; i++ {
			if i&dist != 0 {
				idx = append(idx, i)
			}
		}
		bytes := int64(len(idx)) * m
		var snap [][]int32
		if b.Verify() {
			snap = make([][]int32, p)
			for r := range snap {
				snap[r] = append([]int32(nil), slot[r]...)
			}
		}
		for r := 0; r < p; r++ {
			dst := (r + dist) % p
			src := (r - dist + p) % p
			var pay []sim.PayUnit
			if b.Verify() {
				for _, i := range idx {
					// Offset class i of rank r currently holds the block
					// that originated at slot[r][i] and is destined for
					// (origin + i) mod p.
					o := int(slot[r][i])
					pay = append(pay, sim.PayUnit{
						Block: a2aBlock(p, o, (o+i)%p), Mask: 1})
				}
			}
			b.SendRecv(r, dst, bytes, src, bytes, pay...)
		}
		if b.Verify() {
			for r := 0; r < p; r++ {
				src := (r - dist + p) % p
				for _, i := range idx {
					// The receiver takes over offset class i from src.
					slot[r][i] = snap[src][i]
				}
			}
		}
	}
	// Final local inverse rotation.
	for r := 0; r < p; r++ {
		b.Compute(r, int64(p)*m)
	}
}

// AlltoallSpread is the windowed linear alltoall: like AlltoallLinear but
// with at most Fanout outstanding sends before draining the matching
// receives, bounding buffer pressure. Parameter: Fanout (window size).
func AlltoallSpread(b *sim.Builder, topo netmodel.Topology, m int64, prm Params) {
	p := topo.P()
	if p <= 1 {
		return
	}
	w := prm.Fanout
	if w < 1 {
		w = 4
	}
	for r := 0; r < p; r++ {
		for lo := 1; lo < p; lo += w {
			hi := lo + w
			if hi > p {
				hi = p
			}
			for i := lo; i < hi; i++ {
				dst := (r + i) % p
				b.SendNB(r, dst, m, pay1(b, a2aBlock(p, r, dst), 1)...)
			}
			for i := lo; i < hi; i++ {
				src := (r - i + p) % p
				b.Recv(r, src, m)
			}
		}
	}
}

// AlltoallHierarchical is the node-aware aggregating alltoall: every rank
// ships its off-node blocks to the node leader (one aggregated message per
// destination node), leaders exchange node-to-node aggregates pairwise, and
// leaders scatter the received aggregates to their local ranks. On-node
// blocks move directly. Wins for small m and large ppn (p*ppn fewer network
// messages); loses badly for large m (leader bottleneck). No parameters.
func AlltoallHierarchical(b *sim.Builder, topo netmodel.Topology, m int64, _ Params) {
	p := topo.P()
	if p <= 1 {
		return
	}
	ppn := topo.PPN
	nodes := topo.Nodes
	leaders, leaderOf := leadersOf(topo)
	if nodes == 1 {
		AlltoallPairwise(b, topo, m, Params{})
		return
	}

	payNodePair := func(members [][]int, srcNode, dstNode int) []sim.PayUnit {
		if !b.Verify() {
			return nil
		}
		var pay []sim.PayUnit
		for _, s := range members[srcNode] {
			for _, d := range members[dstNode] {
				pay = append(pay, sim.PayUnit{Block: a2aBlock(p, s, d), Mask: 1})
			}
		}
		return pay
	}

	// Phase 0: on-node exchange, pairwise within the node (member lists
	// keep this correct under any rank placement).
	members := nodeMembers(topo)
	local := make([]int, p) // rank -> index within its node
	for _, ms := range members {
		for i, r := range ms {
			local[r] = i
		}
	}
	for s := 1; s < ppn; s++ {
		for r := 0; r < p; r++ {
			ms := members[topo.NodeOf(int32(r))]
			dst := ms[(local[r]+s)%ppn]
			src := ms[(local[r]-s+ppn)%ppn]
			b.SendRecv(r, dst, m, src, m, pay1(b, a2aBlock(p, r, dst), 1)...)
		}
	}

	// Phase 1: gather to leader. Every non-leader rank sends, per remote
	// node, the ppn blocks destined to that node, as one message; its i-th
	// message goes to the i-th node other than its own.
	for r := 0; r < p; r++ {
		lead := leaderOf[r]
		if r == lead {
			continue
		}
		home := int(topo.NodeOf(int32(r)))
		b.Repeat(r, nodes-1, func(i int) {
			var pay []sim.PayUnit
			if b.Verify() {
				dn := i
				if dn >= home {
					dn++
				}
				for _, d := range members[dn] {
					pay = append(pay, sim.PayUnit{Block: a2aBlock(p, r, d), Mask: 1})
				}
			}
			b.SendNB(r, lead, int64(ppn)*m, pay...)
		})
		b.Repeat(lead, nodes-1, func(int) { b.Recv(lead, r, int64(ppn)*m) })
	}

	// Phase 2: leaders exchange node aggregates pairwise.
	agg := int64(ppn) * int64(ppn) * m
	for s := 1; s < nodes; s++ {
		for n := 0; n < nodes; n++ {
			dn := (n + s) % nodes
			sn := (n - s + nodes) % nodes
			b.SendRecv(leaders[n], leaders[dn], agg, leaders[sn], agg, payNodePair(members, n, dn)...)
		}
	}

	// Phase 3: leaders scatter to local ranks: per rank, the blocks from
	// all remote nodes destined to it.
	for n := 0; n < nodes; n++ {
		lead := leaders[n]
		for _, r := range members[n] {
			if r == lead {
				continue
			}
			var pay []sim.PayUnit
			if b.Verify() {
				for sn := 0; sn < nodes; sn++ {
					if sn == n {
						continue
					}
					for _, s := range members[sn] {
						pay = append(pay, sim.PayUnit{Block: a2aBlock(p, s, r), Mask: 1})
					}
				}
			}
			b.Send(lead, r, int64(nodes-1)*int64(ppn)*m, pay...)
			b.Recv(r, lead, int64(nodes-1)*int64(ppn)*m)
		}
	}
}

package coll

import (
	"math/bits"

	"mpicollpred/internal/netmodel"
	"mpicollpred/internal/sim"
)

// Allreduce verification convention: the vector is split into logical
// blocks (block 0 = whole vector for unsegmented exchange algorithms,
// block i = reduce-scatter chunk i for chunked algorithms). Rank r initially
// holds mask 1<<r for every block it owns; at the end every rank must hold
// the full mask for every block. A rank may only send contribution sets it
// has already accumulated, so a schedule that drops or invents a
// contribution fails verification.

func maskOf(r int) uint64 { return 1 << uint(r&63) }

// AllreduceLinear is the basic linear allreduce: every rank sends its full
// vector to the root, which reduces them one by one and then broadcasts the
// result linearly. No parameters.
func AllreduceLinear(b *sim.Builder, topo netmodel.Topology, m int64, _ Params) {
	p := topo.P()
	if p <= 1 {
		return
	}
	full := sim.FullMask(p)
	for r := 1; r < p; r++ {
		b.Send(r, Root, m, pay1(b, 0, maskOf(r))...)
		b.Recv(Root, r, m)
		b.Compute(Root, m)
	}
	for r := 1; r < p; r++ {
		b.Send(Root, r, m, pay1(b, 0, full)...)
		b.Recv(r, Root, m)
	}
}

// AllreduceNonoverlapping is reduce + broadcast over binomial trees: leaves
// send up the tree with the parent reducing as contributions arrive, then
// the result is broadcast back down the same tree. No parameters.
func AllreduceNonoverlapping(b *sim.Builder, topo netmodel.Topology, m int64, _ Params) {
	AllreduceKnomial(b, topo, m, Params{Fanout: 2})
}

// AllreduceRecursiveDoubling is the classic recursive-doubling allreduce
// with the standard non-power-of-two pre/post phase (the first 2*(p-p2)
// ranks pair up; even partners retire during the doubling and are refreshed
// at the end). No parameters.
func AllreduceRecursiveDoubling(b *sim.Builder, topo netmodel.Topology, m int64, _ Params) {
	ranks := allRanks(topo.P())
	recDoubling(b, ranks, m, ownMasks(ranks), false)
}

// AllreduceRing is the bandwidth-optimal ring allreduce: a p-1 step
// reduce-scatter ring followed by a p-1 step allgather ring, both moving
// chunks of ~m/p bytes. No parameters.
func AllreduceRing(b *sim.Builder, topo netmodel.Topology, m int64, _ Params) {
	allreduceRingSeg(b, topo, m, 0)
}

// AllreduceSegmentedRing is the ring allreduce with chunk transfers split
// into segments of Seg bytes (keeping transfers in the eager regime and
// pipelining the computation). Parameter: Seg.
func AllreduceSegmentedRing(b *sim.Builder, topo netmodel.Topology, m int64, prm Params) {
	allreduceRingSeg(b, topo, m, prm.Seg)
}

func allreduceRingSeg(b *sim.Builder, topo netmodel.Topology, m int64, seg int64) {
	p := topo.P()
	if p <= 1 {
		return
	}
	ranks := allRanks(p)
	ringAllreduce(b, ranks, ownMasks(ranks), m, seg, false)
}

// ringAllreduce runs the ring allreduce over the ring members ranks, member
// i contributing acc[i]: a reduce-scatter ring and an allgather ring of
// len(ranks)-1 steps each, on chunks of ~m/len(ranks) bytes, every chunk
// transfer split into segments of seg bytes (seg <= 0: unsegmented).
// Payloads name the chunk they carry, or block 0 when oneBlock is set, for
// callers that track the vector as one block.
func ringAllreduce(b *sim.Builder, ranks []int, acc []uint64, m, seg int64, oneBlock bool) {
	p := len(ranks)
	chunks := chunkSizes(m, p)
	rem := int(m % int64(p))
	var full uint64
	for _, a := range acc {
		full |= a
	}
	// reduced returns the contributions member i's chunk holds after k
	// reduce-scatter steps: those of members i-k..i.
	reduced := func(i, k int) uint64 {
		if !b.Verify() {
			return full
		}
		var mask uint64
		for j := 0; j <= k; j++ {
			mask |= acc[mod(i-j, p)]
		}
		return mask
	}
	if seg <= 0 || seg >= chunks[0] {
		// Every chunk goes in one message. Member i's k-th chunk is c_k =
		// i-k (mod p). Its stream, read in the phase of the chunk it
		// receives, is: send c_0; for k = 1..p-1, receive c_k, reduce it
		// and send it on (the last send opens the allgather); for k =
		// 0..p-3, receive the reduced c_k and send it on; receive c_{p-2}.
		// Each run of chunks of one size is one Repeat, so a (receive,
		// reduce, send) period spans the steps it runs over, across the
		// two phases.
		for i := 0; i < p; i++ {
			r, dst, src := ranks[i], ranks[mod(i+1, p)], ranks[mod(i-1, p)]
			send := func(k int, mask uint64) {
				c := mod(i-k, p)
				blk := int32(c)
				if oneBlock {
					blk = 0
				}
				b.SendNB(r, dst, chunks[c], pay1(b, blk, mask)...)
			}
			// each calls body for k = from..to-1, each run of chunks of
			// one size as one Repeat.
			each := func(from, to int, body func(k int)) {
				for k := from; k < to; {
					k0, n := k, min(chunkRun(mod(i-k, p), rem, p), to-k)
					b.Repeat(r, n, func(j int) { body(k0 + j) })
					k += n
				}
			}
			send(0, reduced(i, 0))
			each(1, p, func(k int) {
				b.Recv(r, src, chunks[mod(i-k, p)])
				b.Compute(r, chunks[mod(i-k, p)])
				send(k, reduced(i, k))
			})
			each(0, p-2, func(k int) {
				b.Recv(r, src, chunks[mod(i-k, p)])
				send(k, full)
			})
			b.Recv(r, src, chunks[mod(i-(p-2), p)])
		}
		return
	}
	// xfer emits member i's step: it sends chunk c, carrying contributions
	// mask, to member i+1 and receives chunk c-1 from member i-1, reducing
	// it unless gathering. The two chunks can differ in size (by one byte
	// when p does not divide m), so each direction is segmented on its own,
	// and the j-th send precedes the j-th receive; each stretch of segment
	// pairs of equal sizes is one Repeat.
	xfer := func(i, c int, mask uint64, gather bool) {
		r, dst, src := ranks[i], ranks[mod(i+1, p)], ranks[mod(i-1, p)]
		blk := int32(c)
		if oneBlock {
			blk = 0
		}
		zipRuns(segRuns(chunks[c], seg), segRuns(chunks[mod(c-1, p)], seg), func(x, y int64, n int) {
			b.Repeat(r, n, func(int) {
				if x >= 0 {
					b.SendNB(r, dst, x, pay1(b, blk, mask)...)
				}
				if y >= 0 {
					b.Recv(r, src, y)
					if !gather {
						b.Compute(r, y)
					}
				}
			})
		})
	}
	// Reduce-scatter: at step s member i sends chunk (i-s), holding the
	// contributions of members i-s..i, and accumulates into chunk (i-1-s).
	// Allgather: member i then owns the fully reduced chunk (i+1); at step
	// s it forwards chunk (i+1-s) and receives chunk (i-s). Each run of
	// steps over which both chunk sizes stay the same is one Repeat.
	for i := 0; i < p; i++ {
		for _, gather := range [2]bool{false, true} {
			first := i
			if gather {
				first = i + 1
			}
			for s := 0; s < p-1; {
				c, s0 := mod(first-s, p), s
				n := min(chunkRun(c, rem, p), chunkRun(mod(c-1, p), rem, p), p-1-s)
				b.Repeat(ranks[i], n, func(k int) {
					mask := full
					if !gather {
						mask = reduced(i, s0+k)
					}
					xfer(i, mod(c-k, p), mask, gather)
				})
				s += n
			}
		}
	}
}

// AllreduceRabenseifner is Rabenseifner's algorithm: recursive-halving
// reduce-scatter followed by recursive-doubling allgather, with the
// standard non-power-of-two pre/post phase. No parameters.
func AllreduceRabenseifner(b *sim.Builder, topo netmodel.Topology, m int64, _ Params) {
	p := topo.P()
	if p <= 1 {
		return
	}
	p2, group := foldGroup(p)
	rem := p - p2
	full := sim.FullMask(p)

	// Pre-phase as in recursive doubling: fold the extras in. It moves the
	// full vector, i.e. every one of the p2 chunk blocks the later phases
	// operate on.
	ranks := allRanks(p)
	acc := ownMasks(ranks) // per-rank mask covering its *entire* vector
	foldIn(b, ranks, rem, m, acc, p2)

	// Recursive halving reduce-scatter over p2 chunks. Chunk masks are
	// tracked per group member. lo/hi delimit each member's current range.
	chunks := chunkSizes(m, p2)
	type span struct{ lo, hi int }
	cur := make([]span, p2)
	for v := range cur {
		cur[v] = span{0, p2}
	}
	cmask := make([][]uint64, p2) // per group member, per chunk
	if b.Verify() {
		for v := range cmask {
			cmask[v] = make([]uint64, p2)
			for c := range cmask[v] {
				cmask[v][c] = acc[group[v]]
			}
		}
	}
	payRange := func(v, lo, hi int) []sim.PayUnit {
		if !b.Verify() {
			return nil
		}
		pay := make([]sim.PayUnit, 0, hi-lo)
		for c := lo; c < hi; c++ {
			pay = append(pay, sim.PayUnit{Block: int32(c), Mask: cmask[v][c]})
		}
		return pay
	}
	for dist := p2 / 2; dist >= 1; dist /= 2 {
		snap := cmask
		if b.Verify() {
			snap = make([][]uint64, p2)
			for v := range snap {
				snap[v] = append([]uint64(nil), cmask[v]...)
			}
		}
		newCur := make([]span, p2)
		for v := 0; v < p2; v++ {
			w := v ^ dist
			mid := (cur[v].lo + cur[v].hi) / 2
			var keep, give span
			if v < w {
				keep, give = span{cur[v].lo, mid}, span{mid, cur[v].hi}
			} else {
				keep, give = span{mid, cur[v].hi}, span{cur[v].lo, mid}
			}
			sendBytes := sumRange(chunks, give.lo, give.hi)
			recvBytes := sumRange(chunks, keep.lo, keep.hi)
			b.SendRecv(group[v], group[w], sendBytes, group[w], recvBytes, payRange(v, give.lo, give.hi)...)
			b.Compute(group[v], recvBytes)
			newCur[v] = keep
		}
		if b.Verify() {
			for v := 0; v < p2; v++ {
				w := v ^ dist
				for c := newCur[v].lo; c < newCur[v].hi; c++ {
					cmask[v][c] |= snap[w][c]
				}
			}
		}
		for v := range cur {
			cur[v] = newCur[v]
		}
	}

	// Recursive doubling allgather: ranges merge back.
	for dist := 1; dist < p2; dist *= 2 {
		snapCur := append([]span(nil), cur...)
		snap := cmask
		if b.Verify() {
			snap = make([][]uint64, p2)
			for v := range snap {
				snap[v] = append([]uint64(nil), cmask[v]...)
			}
		}
		for v := 0; v < p2; v++ {
			w := v ^ dist
			sendBytes := sumRange(chunks, snapCur[v].lo, snapCur[v].hi)
			recvBytes := sumRange(chunks, snapCur[w].lo, snapCur[w].hi)
			b.SendRecv(group[v], group[w], sendBytes, group[w], recvBytes, payRange(v, snapCur[v].lo, snapCur[v].hi)...)
			lo, hi := snapCur[v].lo, snapCur[v].hi
			if snapCur[w].lo < lo {
				lo = snapCur[w].lo
			}
			if snapCur[w].hi > hi {
				hi = snapCur[w].hi
			}
			cur[v] = span{lo, hi}
			if b.Verify() {
				for c := snapCur[w].lo; c < snapCur[w].hi; c++ {
					cmask[v][c] |= snap[w][c]
				}
			}
		}
	}

	// Post-phase: odd partners return the final vector to the extras.
	foldOut(b, ranks, rem, m, full, p2)
}

// AllreduceAllgatherReduce gathers every rank's vector to every rank via a
// ring allgather (p-1 steps of m bytes) and reduces locally: latency-poor
// and bandwidth-hungry, but embarrassingly simple — the kind of algorithm
// that wins only for tiny vectors on very few processes. No parameters.
func AllreduceAllgatherReduce(b *sim.Builder, topo netmodel.Topology, m int64, _ Params) {
	p := topo.P()
	if p <= 1 {
		return
	}
	// Step s: rank r forwards the vector that originated at (r-s) mod p.
	for r := 0; r < p; r++ {
		b.Repeat(r, p-1, func(s int) {
			b.SendRecv(r, (r+1)%p, m, (r-1+p)%p, m, pay1(b, 0, maskOf(mod(r-s, p)))...)
		})
		b.Compute(r, int64(p-1)*m)
	}
}

// AllreduceKnomial is reduce + broadcast over a k-nomial tree. Parameter:
// Fanout (radix).
func AllreduceKnomial(b *sim.Builder, topo netmodel.Topology, m int64, prm Params) {
	p := topo.P()
	ranks, t, one := allRanks(p), knomialTree(p, prm.Fanout), segRuns(m, 0)
	reduceTree(b, ranks, t, one, ownMasks(ranks))
	bcastTree(b, ranks, t, one, sim.FullMask(p))
}

// AllreduceHierarchical is the topology-aware two-level allreduce: each node
// reduces to its leader (binomial within the node), the leaders run an
// inter-node allreduce (Fanout selects the flavour: 0/1 recursive doubling,
// 2 ring, 3 Rabenseifner), and the leaders broadcast the result within
// their nodes. It shines when ppn is large because only one process per
// node touches the network.
func AllreduceHierarchical(b *sim.Builder, topo netmodel.Topology, m int64, prm Params) {
	// The member lists keep the intra-node phases correct under any rank
	// placement.
	members := nodeMembers(topo)
	nt, one := knomialTree(topo.PPN, 2), segRuns(m, 0)
	leaders := make([]int, len(members))
	nodeAcc := make([]uint64, len(members))
	for n, ms := range members {
		acc := ownMasks(ms)
		reduceTree(b, ms, nt, one, acc)
		leaders[n], nodeAcc[n] = ms[0], acc[0]
	}
	if len(leaders) > 1 {
		switch prm.Fanout {
		case 2: // ring over leaders
			ringAllreduce(b, leaders, nodeAcc, m, 0, true)
		case 3: // recursive doubling with halving volumes (Rabenseifner-ish)
			recDoubling(b, leaders, m, nodeAcc, true)
		default:
			recDoubling(b, leaders, m, nodeAcc, false)
		}
	}
	full := sim.FullMask(topo.P())
	for _, ms := range members {
		bcastTree(b, ms, nt, one, full)
	}
}

// foldGroup returns the largest power of two p2 <= n and the doubling group
// of n members: the first 2*(n-p2) members pair up, each even one folding
// into its odd neighbour and sitting the doubling out; group lists, in
// order, the p2 members that stay.
func foldGroup(n int) (p2 int, group []int) {
	p2 = 1 << (bits.Len(uint(n)) - 1)
	group = make([]int, 0, p2)
	for i := 0; i < n; i++ {
		if i >= 2*(n-p2) || i%2 == 1 {
			group = append(group, i)
		}
	}
	return p2, group
}

// foldIn is the pre-phase of foldGroup's fold: the even member of each of
// the first rem pairs sends its whole vector, nblocks payload blocks, to
// its odd neighbour, which reduces it in.
func foldIn(b *sim.Builder, ranks []int, rem int, m int64, acc []uint64, nblocks int) {
	for e := 0; e < 2*rem; e += 2 {
		b.Send(ranks[e], ranks[e+1], m, payAll(b, nblocks, acc[e])...)
		b.Recv(ranks[e+1], ranks[e], m)
		b.Compute(ranks[e+1], m)
		acc[e+1] |= acc[e]
	}
}

// foldOut is the post-phase: the odd member of each of the first rem pairs
// returns the result, mask full on nblocks blocks, to its even neighbour.
func foldOut(b *sim.Builder, ranks []int, rem int, m int64, full uint64, nblocks int) {
	for e := 0; e < 2*rem; e += 2 {
		b.Send(ranks[e+1], ranks[e], m, payAll(b, nblocks, full)...)
		b.Recv(ranks[e], ranks[e+1], m)
	}
}

// recDoubling runs a recursive-doubling allreduce over the member list
// ranks, member i contributing acc[i], with foldGroup's non-power-of-two
// pre/post phase. When halving is true, exchanged volumes follow the
// reduce-scatter/allgather pattern (half, then quarter, ...), modelling a
// Rabenseifner-style leader exchange; payload tracking still treats the
// vector as one block, which remains sound because contribution sets are
// identical across the vector.
func recDoubling(b *sim.Builder, ranks []int, m int64, acc []uint64, halving bool) {
	p2, group := foldGroup(len(ranks))
	rem := len(ranks) - p2
	foldIn(b, ranks, rem, m, acc, 1)

	vol := m
	for dist := 1; dist < p2; dist *= 2 {
		if halving {
			vol = m / int64(2*dist)
			if vol < 1 {
				vol = 1
			}
		}
		snap := append([]uint64(nil), acc...)
		for v := 0; v < p2; v++ {
			li := group[v]
			wi := group[v^dist]
			b.SendRecv(ranks[li], ranks[wi], vol, ranks[wi], vol, pay1(b, 0, snap[li])...)
			b.Compute(ranks[li], vol)
			acc[li] |= snap[wi]
		}
	}
	if halving {
		// Allgather the scattered pieces back (doubling volumes).
		for dist := p2 / 2; dist >= 1; dist /= 2 {
			vol = m / int64(2*dist)
			if vol < 1 {
				vol = 1
			}
			snap := append([]uint64(nil), acc...)
			for v := 0; v < p2; v++ {
				li := group[v]
				wi := group[v^dist]
				b.SendRecv(ranks[li], ranks[wi], vol, ranks[wi], vol, pay1(b, 0, snap[li])...)
				acc[li] |= snap[wi]
			}
		}
	}
	// Every group member now holds the reduction over all members.
	foldOut(b, ranks, rem, m, acc[group[0]], 1)
}

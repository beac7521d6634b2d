// Package coll implements the collective communication algorithms of the
// simulated MPI libraries as schedule generators: each algorithm, given a
// process topology, a message size and its algorithmic parameters, emits a
// per-rank operation program for the discrete-event simulator.
//
// Every generator is a faithful implementation of the corresponding
// communication schedule (tree shapes, segmentation, pipelining, exchange
// patterns) — running times emerge from simulating the schedule, not from
// closed-form cost formulas. In verify mode the generators additionally
// annotate messages with data-flow payloads so tests can prove the schedule
// actually implements the collective's semantics.
package coll

import (
	"fmt"

	"mpicollpred/internal/netmodel"
	"mpicollpred/internal/sim"
)

// Params carries the algorithmic parameters of a configuration. The meaning
// depends on the algorithm: Seg is a segment size in bytes (0 = no
// segmentation); Fanout is the chain count for chain broadcasts, the radix
// for k-nomial trees, or the outstanding-request window for spread alltoall.
type Params struct {
	Seg    int64
	Fanout int
}

func (p Params) String() string {
	s := ""
	if p.Seg > 0 {
		s += fmt.Sprintf(" seg=%d", p.Seg)
	}
	if p.Fanout > 0 {
		s += fmt.Sprintf(" fanout=%d", p.Fanout)
	}
	return s
}

// Generator emits the schedule of one collective algorithm for the given
// topology, per-instance message size m (bytes) and parameters.
type Generator func(b *sim.Builder, topo netmodel.Topology, m int64, prm Params)

// Root is the root rank of all rooted collectives (the paper benchmarks a
// fixed root).
const Root = 0

// run is n consecutive segments (or chunks) of size bytes each.
type run struct {
	size int64
	n    int
}

// segRuns splits m into segments of at most seg bytes, returned as at most
// two runs of equal sizes: the full segments, then a shorter tail (n == 0
// when there is none). seg <= 0 or seg >= m yields a single segment.
// m == 0 yields one empty segment so that schedules still carry the
// synchronization structure.
func segRuns(m, seg int64) [2]run {
	if m <= 0 {
		return [2]run{{0, 1}}
	}
	if seg <= 0 || seg >= m {
		return [2]run{{m, 1}}
	}
	n := (m + seg - 1) / seg
	if tail := m - seg*(n-1); tail != seg {
		return [2]run{{seg, int(n - 1)}, {tail, 1}}
	}
	return [2]run{{seg, int(n)}}
}

// zipRuns walks the segments of a and b side by side, calling f once per
// stretch of n positions over which both sizes stay the same; x (y) is -1
// past the last segment of a (b).
func zipRuns(a, b [2]run, f func(x, y int64, n int)) {
	for {
		if a[0].n == 0 {
			a[0], a[1] = a[1], run{}
		}
		if b[0].n == 0 {
			b[0], b[1] = b[1], run{}
		}
		n := max(a[0].n, b[0].n)
		if n == 0 {
			return
		}
		x, y := int64(-1), int64(-1)
		if a[0].n > 0 {
			x, n = a[0].size, min(n, a[0].n)
		}
		if b[0].n > 0 {
			y, n = b[0].size, min(n, b[0].n)
		}
		f(x, y, n)
		a[0].n = max(a[0].n-n, 0)
		b[0].n = max(b[0].n-n, 0)
	}
}

// repeatSegs emits on rank r one body per segment of segs, in order, each
// run of equal segments as one Repeat; body gets the segment's size and
// index.
func repeatSegs(b *sim.Builder, r int, segs [2]run, body func(sz int64, blk int32)) {
	base := 0
	for _, sr := range segs {
		b.Repeat(r, sr.n, func(i int) { body(sr.size, int32(base+i)) })
		base += sr.n
	}
}

// chunkRun returns for how many ring steps a rank's chunk keeps the size
// of chunk j when the chunk index goes down by one (mod p) a step. The
// chunks are chunkSizes(m, p) with rem = m mod p: those below rem are one
// byte larger, so the size changes past chunk rem and past chunk 0. The
// count may run past the ring's last step.
func chunkRun(j, rem, p int) int {
	switch {
	case rem == 0:
		return p
	case j >= rem:
		return j - rem + 1
	default:
		return j + 1
	}
}

// mod returns a mod p in [0, p).
func mod(a, p int) int { return (a%p + p) % p }

// chunkSizes splits m into p nearly equal chunks (chunk i gets one extra
// byte while i < m mod p); used by scatter/reduce-scatter based algorithms.
func chunkSizes(m int64, p int) []int64 {
	out := make([]int64, p)
	base := m / int64(p)
	rem := m % int64(p)
	for i := range out {
		out[i] = base
		if int64(i) < rem {
			out[i]++
		}
	}
	return out
}

// sumRange sums sizes[lo:hi].
func sumRange(sizes []int64, lo, hi int) int64 {
	var s int64
	for i := lo; i < hi; i++ {
		s += sizes[i]
	}
	return s
}

// tree describes a rooted spanning tree over p ranks. For k-nomial trees,
// span[r] is the length of the contiguous rank interval [r, r+span[r])
// forming r's subtree (the property binomial scatter relies on); it is nil
// for tree shapes without contiguous subtrees.
type tree struct {
	parent   []int
	children [][]int
	span     []int
}

// knomialTree builds the k-nomial tree rooted at Root used by binomial
// (k=2) and k-nomial broadcasts/reductions. Children are ordered with the
// largest subtree first, matching the classic binomial broadcast order.
func knomialTree(p, k int) tree {
	if k < 2 {
		k = 2
	}
	t := tree{parent: make([]int, p), children: make([][]int, p), span: make([]int, p)}
	for r := 0; r < p; r++ {
		t.parent[r] = -1
		t.span[r] = p // root spans everything
		mask := 1
		for mask < p {
			digit := (r / mask) % k
			if digit != 0 {
				t.parent[r] = r - digit*mask
				t.span[r] = mask
				if r+t.span[r] > p {
					t.span[r] = p - r
				}
				break
			}
			mask *= k
		}
	}
	// Children in descending rank order approximates farthest-first
	// (largest remaining subtree first).
	for r := p - 1; r >= 1; r-- {
		pa := t.parent[r]
		t.children[pa] = append(t.children[pa], r)
	}
	return t
}

// binaryTree builds the in-order heap-shaped binary tree rooted at Root
// (children of r are 2r+1 and 2r+2).
func binaryTree(p int) tree {
	t := tree{parent: make([]int, p), children: make([][]int, p)}
	t.parent[0] = -1
	for r := 1; r < p; r++ {
		t.parent[r] = (r - 1) / 2
	}
	for r := 0; r < p; r++ {
		if l := 2*r + 1; l < p {
			t.children[r] = append(t.children[r], l)
		}
		if rr := 2*r + 2; rr < p {
			t.children[r] = append(t.children[r], rr)
		}
	}
	return t
}

// subtreeSize returns the number of ranks in each rank's subtree, computed
// by post-order accumulation from the root.
func (t tree) subtreeSize() []int {
	p := len(t.parent)
	size := make([]int, p)
	var visit func(r int)
	visit = func(r int) {
		size[r] = 1
		for _, c := range t.children[r] {
			visit(c)
			size[r] += size[c]
		}
	}
	visit(0)
	return size
}

// bcastTree emits a segmented pipelined broadcast down tree t over the
// member list ranks, tree node i being rank ranks[i]: for each segment of
// segs, every member receives it from its parent and forwards it to its
// children in order, granting mask on the segment's block.
func bcastTree(b *sim.Builder, ranks []int, t tree, segs [2]run, mask uint64) {
	for i, r := range ranks {
		repeatSegs(b, r, segs, func(sz int64, blk int32) {
			if t.parent[i] >= 0 {
				b.Recv(r, ranks[t.parent[i]], sz)
			}
			for _, c := range t.children[i] {
				b.Send(r, ranks[c], sz, pay1(b, blk, mask)...)
			}
		})
	}
}

// reduceTree emits the same walk upward: for each segment of segs, every
// member receives its children's partial results in reverse child order
// (smallest subtree first: they finish soonest), reducing after each, then
// sends its partial to its parent. acc[i] is member i's contribution mask;
// it becomes the mask of i's subtree, which every segment i sends carries
// as block 0. Parents must precede their children in ranks, as in k-nomial
// trees.
func reduceTree(b *sim.Builder, ranks []int, t tree, segs [2]run, acc []uint64) {
	for i := len(ranks) - 1; i >= 1; i-- {
		acc[t.parent[i]] |= acc[i]
	}
	for i, r := range ranks {
		repeatSegs(b, r, segs, func(sz int64, _ int32) {
			for j := len(t.children[i]) - 1; j >= 0; j-- {
				b.Recv(r, ranks[t.children[i][j]], sz)
				b.Compute(r, sz)
			}
			if t.parent[i] >= 0 {
				b.Send(r, ranks[t.parent[i]], sz, pay1(b, 0, acc[i])...)
			}
		})
	}
}

// allRanks returns the member list 0..p-1: a walk over every rank.
func allRanks(p int) []int {
	ranks := make([]int, p)
	for r := range ranks {
		ranks[r] = r
	}
	return ranks
}

// ownMasks returns each member's own contribution mask.
func ownMasks(ranks []int) []uint64 {
	acc := make([]uint64, len(ranks))
	for i, r := range ranks {
		acc[i] = maskOf(r)
	}
	return acc
}

// nodeMembers returns, per node, the sorted ranks it hosts — valid for any
// placement (block or cyclic).
func nodeMembers(topo netmodel.Topology) [][]int {
	members := make([][]int, topo.Nodes)
	for r := 0; r < topo.P(); r++ {
		n := topo.NodeOf(int32(r))
		members[n] = append(members[n], r)
	}
	return members
}

// leadersOf returns the node-leader ranks (lowest rank on each node) and
// each rank's leader, for hierarchical (two-level) algorithms.
func leadersOf(topo netmodel.Topology) (leaders []int, leaderOf []int) {
	members := nodeMembers(topo)
	leaders = make([]int, topo.Nodes)
	leaderOf = make([]int, topo.P())
	for n, ms := range members {
		leaders[n] = ms[0]
		for _, r := range ms {
			leaderOf[r] = ms[0]
		}
	}
	return leaders, leaderOf
}

// pay1 returns a single-unit payload slice when verifying, nil otherwise.
// Passing nil payloads in production keeps the builder hot path cheap.
func pay1(b *sim.Builder, block int32, mask uint64) []sim.PayUnit {
	if !b.Verify() {
		return nil
	}
	return []sim.PayUnit{{Block: block, Mask: mask}}
}

// payAll returns payload units granting mask on blocks [0, nblocks): the
// annotation of a message carrying the whole (chunk-structured) vector.
func payAll(b *sim.Builder, nblocks int, mask uint64) []sim.PayUnit {
	if !b.Verify() {
		return nil
	}
	pay := make([]sim.PayUnit, nblocks)
	for i := range pay {
		pay[i] = sim.PayUnit{Block: int32(i), Mask: mask}
	}
	return pay
}

package coll

import (
	"math/bits"
	"slices"

	"mpicollpred/internal/netmodel"
	"mpicollpred/internal/sim"
)

// Allgather verification convention: m is each rank's contribution size;
// block id = source rank, mask 1. Rank r initially holds block r; at the
// end every rank must hold every block. Allgather is not one of the paper's
// benchmarked collectives but completes the library portfolios.

// AllgatherRing is the p-1 step ring allgather. No parameters.
func AllgatherRing(b *sim.Builder, topo netmodel.Topology, m int64, _ Params) {
	p := topo.P()
	if p <= 1 {
		return
	}
	// At step s rank r forwards block r-s.
	for r := 0; r < p; r++ {
		b.Repeat(r, p-1, func(s int) {
			b.SendRecv(r, (r+1)%p, m, (r-1+p)%p, m, pay1(b, int32(mod(r-s, p)), 1)...)
		})
	}
}

// AllgatherRecursiveDoubling doubles the gathered range each round; the
// non-power-of-two pre/post phase folds the extra ranks in and out. No
// parameters.
func AllgatherRecursiveDoubling(b *sim.Builder, topo netmodel.Topology, m int64, _ Params) {
	p := topo.P()
	if p <= 1 {
		return
	}
	sizes := make([]int64, p)
	for r := range sizes {
		sizes[r] = m
	}
	rdAllgather(b, sizes, int64(p)*m)
}

// rdAllgather is the recursive-doubling allgather over ranks 0..p-1, p =
// len(sizes), rank r starting with block r of sizes[r] bytes (mask 1) and
// every rank ending with all total bytes. The last p-p2 ranks (p2 the
// largest power of two <= p) first hand their block to rank r-p2; ranks
// [0, p2) then double their holdings each round; last, the extras receive
// the whole result from their partner.
func rdAllgather(b *sim.Builder, sizes []int64, total int64) {
	p := len(sizes)
	p2 := 1 << (bits.Len(uint(p)) - 1)
	// bytes[r] is what rank r holds. Partners' holdings are disjoint, so an
	// exchange sums them. held[r], the payload naming those blocks, is kept
	// in verify mode only.
	bytes := slices.Clone(sizes)
	held := make([][]sim.PayUnit, p)
	for r := range held {
		held[r] = pay1(b, int32(r), 1)
	}
	for src := p2; src < p; src++ {
		dst := src - p2
		b.Send(src, dst, bytes[src], held[src]...)
		b.Recv(dst, src, bytes[src])
		bytes[dst] += bytes[src]
		held[dst] = append(held[dst], held[src]...)
	}
	// Exchanges within a round are concurrent, so each round reads a
	// snapshot of the holdings.
	snap := make([]int64, p2)
	for dist := 1; dist < p2; dist *= 2 {
		copy(snap, bytes)
		for r := 0; r < p2; r++ {
			q := r ^ dist
			b.SendRecv(r, q, snap[r], q, snap[q], held[r]...)
			bytes[r] = snap[r] + snap[q]
		}
		if b.Verify() {
			next := make([][]sim.PayUnit, p2)
			for r := range next {
				next[r] = append(slices.Clip(held[r]), held[r^dist]...)
			}
			copy(held, next)
		}
	}
	for dst := p2; dst < p; dst++ {
		b.Send(dst-p2, dst, total, payAll(b, p, 1)...)
		b.Recv(dst, dst-p2, total)
	}
}

// AllgatherBruck gathers in ceil(log2 p) rounds by shifting accumulated
// block runs to rank-2^k neighbours; works for any p. No parameters.
func AllgatherBruck(b *sim.Builder, topo netmodel.Topology, m int64, _ Params) {
	p := topo.P()
	if p <= 1 {
		return
	}
	// After round k, rank r holds blocks (r, r+1, ..., r+cnt-1) mod p.
	cnt := 1
	for dist := 1; dist < p; dist *= 2 {
		send := cnt
		if send > p-cnt {
			send = p - cnt
		}
		for r := 0; r < p; r++ {
			dst := (r - dist + p) % p
			src := (r + dist) % p
			var pay []sim.PayUnit
			if b.Verify() {
				for i := 0; i < send; i++ {
					pay = append(pay, sim.PayUnit{Block: int32((r + i) % p), Mask: 1})
				}
			}
			b.SendRecv(r, dst, int64(send)*m, src, int64(send)*m, pay...)
		}
		cnt += send
	}
}

// AllgatherLinear has every rank send its block to every other rank
// directly (p*(p-1) messages). No parameters.
func AllgatherLinear(b *sim.Builder, topo netmodel.Topology, m int64, _ Params) {
	p := topo.P()
	if p <= 1 {
		return
	}
	for r := 0; r < p; r++ {
		for i := 1; i < p; i++ {
			b.SendNB(r, (r+i)%p, m, pay1(b, int32(r), 1)...)
		}
		for i := 1; i < p; i++ {
			b.Recv(r, (r-i+p)%p, m)
		}
	}
}

// AllgatherNeighborExchange is the neighbor-exchange allgather (even p
// only; falls back to ring otherwise): pairs exchange growing runs with
// alternating left/right neighbours in p/2 steps.
func AllgatherNeighborExchange(b *sim.Builder, topo netmodel.Topology, m int64, _ Params) {
	p := topo.P()
	if p <= 1 {
		return
	}
	if p%2 != 0 || p == 2 {
		AllgatherRing(b, topo, m, Params{})
		return
	}
	// Message sizes are fixed (m, then 2m), so blocks are tracked only to
	// annotate payloads in verify mode: fwd[r] is what rank r sends next —
	// its own block at step 0, then its own and its first partner's, and
	// from step 2 on the two blocks it received in the previous step.
	var fwd [][]sim.PayUnit
	if b.Verify() {
		fwd = make([][]sim.PayUnit, p)
		for r := range fwd {
			fwd[r] = []sim.PayUnit{{Block: int32(r), Mask: 1}}
		}
	}
	payOf := func(r int) []sim.PayUnit {
		if fwd == nil {
			return nil
		}
		return fwd[r]
	}
	// partner alternates between the two ring neighbours: even steps pair
	// (0,1)(2,3)... and odd steps pair (1,2)(3,4)...(p-1,0).
	partner := func(r, s int) int {
		if s%2 == 0 {
			return r ^ 1
		}
		if r%2 == 1 {
			return (r + 1) % p
		}
		return (r - 1 + p) % p
	}

	// Step 0: exchange own block with the first partner.
	for r := 0; r < p; r++ {
		b.SendRecv(r, partner(r, 0), m, partner(r, 0), m, payOf(r)...)
	}
	if fwd != nil {
		for r := range fwd {
			fwd[r] = append(fwd[r], sim.PayUnit{Block: int32(partner(r, 0)), Mask: 1})
		}
	}
	// Steps 1..p/2-1: forward the two blocks gained in the previous step
	// to the other neighbour.
	for s := 1; s < p/2; s++ {
		for r := 0; r < p; r++ {
			b.SendRecv(r, partner(r, s), 2*m, partner(r, s), 2*m, payOf(r)...)
		}
		if fwd != nil {
			next := make([][]sim.PayUnit, p)
			for r := range next {
				next[r] = fwd[partner(r, s)]
			}
			fwd = next
		}
	}
}

package coll

import (
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
	p2 := 1
	for p2*2 <= p {
		p2 *= 2
	}
	extras := p - p2

	// cnt[r] counts the blocks rank r holds. Partners' holdings are
	// disjoint, so an exchange sums them. The block sets themselves are kept
	// only to annotate payloads in verify mode.
	cnt := make([]int64, p)
	for r := range cnt {
		cnt[r] = 1
	}
	var held [][]int
	if b.Verify() {
		held = make([][]int, p)
		for r := range held {
			held[r] = []int{r}
		}
	}
	payFor := func(r int) []sim.PayUnit {
		if held == nil {
			return nil
		}
		pay := make([]sim.PayUnit, 0, len(held[r]))
		for _, c := range held[r] {
			pay = append(pay, sim.PayUnit{Block: int32(c), Mask: 1})
		}
		return pay
	}
	// Pre-phase: extras hand their block to their partner in [0, p2).
	for e := 0; e < extras; e++ {
		src, dst := p2+e, e
		b.Send(src, dst, m, payFor(src)...)
		b.Recv(dst, src, m)
		cnt[dst]++
		if held != nil {
			held[dst] = append(held[dst], src)
		}
	}
	// Doubling over [0, p2), each round reading a snapshot of the holdings.
	sendCnt := make([]int64, p2)
	pays := make([][]sim.PayUnit, p2)
	for dist := 1; dist < p2; dist *= 2 {
		copy(sendCnt, cnt)
		for r := 0; r < p2; r++ {
			pays[r] = payFor(r)
		}
		for r := 0; r < p2; r++ {
			partner := r ^ dist
			b.SendRecv(r, partner, sendCnt[r]*m, partner, sendCnt[partner]*m, pays[r]...)
			cnt[r] = sendCnt[r] + sendCnt[partner]
		}
		if held != nil {
			newHeld := make([][]int, p2)
			for r := 0; r < p2; r++ {
				newHeld[r] = append(append([]int{}, held[r]...), held[r^dist]...)
			}
			copy(held, newHeld)
		}
	}
	// Post-phase: partners return the full result to the extras.
	if extras > 0 {
		var fullPay []sim.PayUnit
		if b.Verify() {
			fullPay = make([]sim.PayUnit, p)
			for i := range fullPay {
				fullPay[i] = sim.PayUnit{Block: int32(i), Mask: 1}
			}
		}
		for e := 0; e < extras; e++ {
			b.Send(e, p2+e, int64(p)*m, fullPay...)
			b.Recv(p2+e, e, int64(p)*m)
		}
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

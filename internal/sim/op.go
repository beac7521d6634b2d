// Package sim implements a deterministic discrete-event simulator for
// message-passing programs.
//
// A collective algorithm is expressed as a Program: one sequential list of
// operations (send, receive, compute) per rank. The Engine executes all rank
// programs against a CostModel, respecting MPI-style non-overtaking message
// matching per (source, destination) pair, and returns the simulated
// completion time of every rank.
//
// Programs are built through a Builder, which can optionally record payload
// metadata (which logical data blocks, contributed by which ranks, a message
// carries). The Tracker replays that metadata during execution to verify the
// semantic correctness of a schedule: a rank may only send data it already
// holds, and the final holdings must match the collective's postcondition.
package sim

import (
	"fmt"
	"slices"
)

// OpKind discriminates the operation types a rank program may contain.
type OpKind uint8

const (
	// OpSend transmits Bytes to rank Peer. The sender resumes after its
	// local overhead (eager protocol) or after the receiver has matched
	// the message (rendezvous protocol).
	OpSend OpKind = iota
	// OpRecv blocks until the next unmatched message from rank Peer has
	// arrived, then completes after the receive overhead.
	OpRecv
	// OpCompute advances the rank's local clock by the model's computation
	// cost for Bytes bytes (used for reduction arithmetic and copies).
	OpCompute
	// OpSendNB is a non-blocking send (MPI_Isend / the send half of
	// MPI_Sendrecv): the sender proceeds after its local overhead even for
	// rendezvous-size messages; the data transfer itself still waits for
	// the matching receive. Exchange-style algorithms (recursive doubling,
	// rings, pairwise) use it to stay deadlock-free, as real MPI
	// implementations do.
	OpSendNB
)

// Op is a single operation in a rank program. It is kept small (16 bytes):
// the engine loads one per event.
type Op struct {
	Peer     int32 // destination (send) or source (recv); unused for compute
	Bytes    uint32
	PayStart int32 // index into Program.Pay; -1 when no payload recorded
	PayLen   int16
	Kind     OpKind
	_        uint8
}

// PayUnit describes one logical data block carried by a message: the block
// identifier and the set of contributing ranks (as a bitmask, which limits
// verification to p <= 64 ranks; timing simulation has no such limit).
type PayUnit struct {
	Block int32
	Mask  uint64
}

// Program is a complete schedule: one op stream per rank plus the shared
// payload table referenced by the ops.
//
// A rank's stream is stored folded: a list of loops, each running a body of
// ops from the rank's store a number of times. Segmented and multi-step
// schedules repeat the same few ops thousands of times, and their
// generators state those loops through Builder.Repeat, so the store holds
// only the loop bodies and the literal runs between them (a literal run is
// a loop that runs once). Expand returns the stream unfolded.
//
// Build numbers the program's (sender, receiver) pairs densely, so the
// engine keeps its per-pair matching state in a slice of npairs entries.
type Program struct {
	ranks  []rankProg
	Pay    []PayUnit
	nops   int
	npairs int
}

// rankProg is one rank's folded op stream. pair[i] is the id of the
// (sender, receiver) pair of ops[i], or -1 for a compute op.
type rankProg struct {
	ops   []Op
	pair  []int32
	loops []loop
}

// loop runs ops[start:start+len] of its rank's store n times (n >= 1,
// len >= 1).
type loop struct {
	start, len, n int32
}

// NumRanks returns the number of rank programs.
func (p *Program) NumRanks() int { return len(p.ranks) }

// NumOps returns the total number of operations across all ranks, counting
// every iteration of every loop.
func (p *Program) NumOps() int { return p.nops }

// Expand returns rank r's op stream with every loop unrolled: the ops in the
// order the builder received them.
func (p *Program) Expand(r int) []Op {
	rp := &p.ranks[r]
	var out []Op
	for _, l := range rp.loops {
		body := rp.ops[l.start : l.start+l.len]
		for i := int32(0); i < l.n; i++ {
			out = append(out, body...)
		}
	}
	return out
}

// Builder incrementally constructs a Program. Generators call Send, Recv and
// Compute with explicit rank arguments; ops are appended to the given rank's
// sequential program. When Verify is false, payload arguments are dropped,
// keeping the hot path allocation-light.
//
// Ops are stored as they arrive, each extending its rank's trailing literal
// run. Generators state their loops through Repeat, which stores a body once
// however many times it runs; that is the only way a program gets a loop.
type Builder struct {
	prog   Program
	verify bool
	// rep is the rank whose outermost Repeat body is running, or -1;
	// repLoop is set while that body's ops go into the store as one loop's
	// body.
	rep     int
	repLoop bool
}

// NewBuilder returns a Builder for p ranks. If verify is true, payload
// metadata passed to Send is recorded for later replay by a Tracker.
func NewBuilder(p int, verify bool) *Builder {
	b := &Builder{verify: verify, rep: -1}
	b.prog.ranks = make([]rankProg, p)
	return b
}

// P returns the number of ranks of the program under construction.
func (b *Builder) P() int { return len(b.prog.ranks) }

// emit appends op to rank's stream.
func (b *Builder) emit(rank int, op Op) {
	rp := &b.prog.ranks[rank]
	if b.rep >= 0 {
		if rank != b.rep {
			//mpicollvet:ignore panicguard schedule-builder invariant: a Repeat body describes one rank's loop, so an op for another rank is a generator bug
			panic(fmt.Sprintf("sim: Repeat body on rank %d emits an op on rank %d", b.rep, rank))
		}
		if b.repLoop {
			// The body runs once; Repeat stores it as one loop.
			rp.ops = append(rp.ops, op)
			return
		}
	}
	b.prog.nops++
	rp.ops = append(rp.ops, op)
	// A loop that runs once is the trailing literal run: it ends at the end
	// of the store.
	if last := len(rp.loops) - 1; last >= 0 && rp.loops[last].n == 1 {
		rp.loops[last].len++
		return
	}
	rp.loops = append(rp.loops, loop{start: int32(len(rp.ops)) - 1, len: 1, n: 1})
}

// Repeat appends n iterations of the ops body emits on rank, which it calls
// with the iteration index i. Outside verify mode, for n >= 2, body runs
// once, with i = 0, and Repeat stores its ops once, as one loop of n
// iterations; so every iteration must emit the same ops. In verify mode,
// and for n = 1, body runs n times, with i = 0..n-1, so that payloads can
// name iteration i's blocks, and its ops are appended as literal ops. A
// body must emit only on rank. A Repeat inside a body whose ops are being
// stored as one loop runs its own body n times into that loop's body, so
// programs keep one loop level; inside any other body it is a Repeat like
// any other. n <= 0 appends nothing.
func (b *Builder) Repeat(rank, n int, body func(i int)) {
	if n <= 0 {
		return
	}
	if b.rep < 0 {
		b.rep = rank
		defer func() { b.rep = -1 }()
	}
	if b.verify || n == 1 || b.repLoop {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	rp := &b.prog.ranks[rank]
	start := len(rp.ops)
	b.repLoop = true
	body(0)
	b.repLoop = false
	k := len(rp.ops) - start
	if k == 0 {
		return
	}
	b.prog.nops += n * k
	rp.loops = append(rp.loops, loop{start: int32(start), len: int32(k), n: int32(n)})
}

// Verify reports whether payload metadata is being recorded.
func (b *Builder) Verify() bool { return b.verify }

// Send appends a send of bytes from rank to dst, optionally annotated with
// the payload units the message carries (recorded only in verify mode).
func (b *Builder) Send(rank, dst int, bytes int64, pay ...PayUnit) {
	op := Op{Kind: OpSend, Peer: int32(dst), Bytes: clampBytes(bytes), PayStart: -1}
	if b.verify && len(pay) > 0 {
		op.PayStart = int32(len(b.prog.Pay))
		op.PayLen = int16(len(pay))
		b.prog.Pay = append(b.prog.Pay, pay...)
	}
	b.emit(rank, op)
}

// SendNB appends a non-blocking send of bytes from rank to dst.
func (b *Builder) SendNB(rank, dst int, bytes int64, pay ...PayUnit) {
	op := Op{Kind: OpSendNB, Peer: int32(dst), Bytes: clampBytes(bytes), PayStart: -1}
	if b.verify && len(pay) > 0 {
		op.PayStart = int32(len(b.prog.Pay))
		op.PayLen = int16(len(pay))
		b.prog.Pay = append(b.prog.Pay, pay...)
	}
	b.emit(rank, op)
}

// Recv appends a blocking receive of bytes on rank from src.
func (b *Builder) Recv(rank, src int, bytes int64) {
	b.emit(rank, Op{Kind: OpRecv, Peer: int32(src), Bytes: clampBytes(bytes), PayStart: -1})
}

// SendRecv appends a non-blocking send to dst followed by a blocking receive
// from src on rank — the deadlock-free exchange primitive (MPI_Sendrecv)
// used by recursive-doubling, ring and pairwise algorithms.
func (b *Builder) SendRecv(rank, dst int, sendBytes int64, src int, recvBytes int64, pay ...PayUnit) {
	b.SendNB(rank, dst, sendBytes, pay...)
	b.Recv(rank, src, recvBytes)
}

// Compute appends a local computation over bytes on rank. Computations
// larger than the per-op byte range (e.g. reducing p gathered vectors) are
// split into multiple ops.
func (b *Builder) Compute(rank int, bytes int64) {
	const maxOpBytes = 1 << 31
	for bytes > maxOpBytes {
		b.emit(rank, Op{Kind: OpCompute, Bytes: maxOpBytes, PayStart: -1})
		bytes -= maxOpBytes
	}
	if bytes <= 0 {
		return
	}
	b.emit(rank, Op{Kind: OpCompute, Bytes: clampBytes(bytes), PayStart: -1})
}

// Build finalizes and returns the Program. The Builder must not be reused.
func (b *Builder) Build() *Program {
	b.prog.numberPairs()
	return &b.prog
}

// numberPairs gives each (sender, receiver) pair of the program a dense id:
// a send to d on rank r belongs to (r, d), a receive from s on rank r to
// (s, r). It uses no map: two passes over the stored ops with a counting
// sort between them. The sender pass numbers each rank's send pairs through
// a slot per peer, in order of first appearance, and records them; the sort
// groups the records by receiver; the receiver pass loads each rank's
// records into the slots and reads its receives' ids from them. A receive
// with no matching send gets a fresh id. Peers index the slots, so the
// slots grow to the largest peer an op names, which may exceed the rank
// count. The ids of all ranks share one allocation, and the records are
// reserved at one per stored send, a bound on the pairs they hold.
func (p *Program) numberPairs() {
	n, nsend := 0, 0
	for _, rp := range p.ranks {
		n += len(rp.ops)
		for _, op := range rp.ops {
			if op.Kind == OpSend || op.Kind == OpSendNB {
				nsend++
			}
		}
	}
	ids := make([]int32, n)
	var slot []int32
	// fit grows the slots to hold peer q.
	fit := func(q int32) {
		for int(q) >= len(slot) {
			slot = append(slot, -1)
		}
	}
	fit(int32(len(p.ranks)) - 1)
	var touched []int32
	// release resets the slots the last rank set.
	release := func() {
		for _, q := range touched {
			slot[q] = -1
		}
		touched = touched[:0]
	}
	type pairRec struct{ src, dst, id int32 }
	sends := make([]pairRec, 0, nsend) // at most one per stored send
	next := int32(0)
	for r := range p.ranks {
		rp := &p.ranks[r]
		rp.pair, ids = ids[:len(rp.ops):len(rp.ops)], ids[len(rp.ops):]
		for i, op := range rp.ops {
			switch op.Kind {
			case OpSend, OpSendNB:
				fit(op.Peer)
				if slot[op.Peer] < 0 {
					slot[op.Peer] = next
					touched = append(touched, op.Peer)
					sends = append(sends, pairRec{int32(r), op.Peer, next})
					next++
				}
				rp.pair[i] = slot[op.Peer]
			default:
				rp.pair[i] = -1 // compute, and receives until the last pass
			}
		}
		release()
	}
	// Counting sort of the send pairs by receiver: first[d] is where
	// receiver d's records start in byDst.
	peers := len(slot)
	first := make([]int32, peers+1)
	for _, s := range sends {
		first[s.dst+1]++
	}
	for d := 1; d <= peers; d++ {
		first[d] += first[d-1]
	}
	byDst := make([]pairRec, len(sends))
	fill := slices.Clone(first[:peers])
	for _, s := range sends {
		byDst[fill[s.dst]] = s
		fill[s.dst]++
	}
	for r := range p.ranks {
		for _, s := range byDst[first[r]:first[r+1]] {
			slot[s.src] = s.id
			touched = append(touched, s.src)
		}
		rp := &p.ranks[r]
		for i, op := range rp.ops {
			if op.Kind != OpRecv {
				continue
			}
			fit(op.Peer)
			if slot[op.Peer] < 0 {
				slot[op.Peer] = next
				touched = append(touched, op.Peer)
				next++
			}
			rp.pair[i] = slot[op.Peer]
		}
		release()
	}
	p.npairs = int(next)
}

func clampBytes(bytes int64) uint32 {
	if bytes < 0 {
		//mpicollvet:ignore panicguard schedule-builder invariant: collective schedules compute byte counts from validated specs, so a negative count is a programmer error
		panic(fmt.Sprintf("sim: negative byte count %d", bytes))
	}
	if bytes > 0xFFFFFFFF {
		//mpicollvet:ignore panicguard schedule-builder invariant: message sizes are capped far below 4 GiB by the dataset grids
		panic(fmt.Sprintf("sim: byte count %d exceeds uint32 range", bytes))
	}
	return uint32(bytes)
}

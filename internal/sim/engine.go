package sim

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// CostModel supplies the timing semantics of the simulated network and CPUs.
// Implementations may be stateful per run (e.g. per-node NIC availability);
// the Engine calls the Send methods in strict (time, rank) order of the
// posting events: nondecreasing in simulated time, and at equal times in
// rank order, whatever order the ranks' other ops run in. MinCost is the
// one stateless method: RunWithin sums it over a rank's remaining ops to
// bound the makespan from below.
type CostModel interface {
	// Eager reports whether a message of the given size uses the eager
	// protocol (sender does not wait for the receiver).
	Eager(bytes uint32) bool
	// SendEager models an eager message posted at time t. It returns the
	// time at which the sender may proceed and the time at which the full
	// message has arrived at the receiver.
	SendEager(src, dst int32, bytes uint32, t float64) (senderDone, arrival float64)
	// SendRendezvous models a rendezvous message whose sender posted at ts
	// and whose receiver posted the matching receive at tr. It returns the
	// sender-resume time and the data arrival time at the receiver.
	SendRendezvous(src, dst int32, bytes uint32, ts, tr float64) (senderDone, arrival float64)
	// RecvOverhead is the receiver CPU cost charged after arrival.
	RecvOverhead(bytes uint32) float64
	// PostOverhead is the sender CPU cost of posting a non-blocking send.
	PostOverhead(bytes uint32) float64
	// Compute is the local computation cost for an OpCompute of bytes.
	Compute(bytes uint32) float64
	// MinCost is a lower bound on what an op of the given kind and size
	// adds to its own rank's clock, whatever the other ranks do: the time
	// from the rank's clock when the op comes up (the post time, if it
	// blocks) to its clock when the op completes. It must not depend on the
	// model's per-run state.
	MinCost(kind OpKind, bytes uint32) float64
}

// Observer receives data-flow callbacks during execution; used by Tracker to
// verify schedule semantics. A nil Observer disables the callbacks.
type Observer interface {
	// OnSend is called when rank src executes a send carrying pay.
	OnSend(src int32, pay []PayUnit) error
	// OnDeliver is called when the message carrying pay is matched at dst.
	OnDeliver(dst int32, pay []PayUnit) error
}

// Result summarizes one simulated execution.
type Result struct {
	// Finish holds each rank's completion time.
	Finish []float64
	// Time is the makespan: max(Finish) - min(start).
	Time float64
	// Events is the number of executed operations.
	Events int
	// Stats carries the per-run instrumentation block; nil unless enabled
	// via Engine.CollectStats.
	Stats *Stats
}

type msgRec struct {
	ts       float64 // post time (rendezvous) or arrival time (eager)
	bytes    uint32
	payStart int32
	payLen   int16
	eager    bool
	nb       bool // rendezvous posted by a non-blocking send: no sender to wake
}

type pairState struct {
	inflight []msgRec
	head     int // index of first unconsumed inflight record
	// Parked receiver (at most one per pair, since receives block).
	waiting   bool
	recvPost  float64
	recvBytes uint32
}

// Engine executes Programs. It is reusable across runs (per-run state is
// reset by Run) but not safe for concurrent use.
type Engine struct {
	clock []float64
	// cur is each rank's position in the body of its current loop; ls, the
	// rank's place in its loop list, changes only when pc reaches end.
	cur   []cursor
	ls    []loopState
	queue readyTree
	// queued counts the ready ranks, the running one included.
	queued int
	// pairs holds the matching state of each (sender, receiver) pair of the
	// program, indexed by the pair ids Build gave its ops.
	pairs []pairState

	prog  *Program
	model CostModel
	obs   Observer
	done  int

	// Floors of a bounded run (RunWithin with a finite bound), set by
	// floors: rank r's stored op pc has at floor[opBase[r]+pc] the floor
	// from it to the end of its loop body, and its loop i has at
	// loopFloors[loopBase[r]+i] the floor of one iteration and of the
	// rank's later loops. curFloor[r] is that of rank r's current loop.
	// The arrays are kept across runs.
	bounded    bool
	floor      []float64
	loopFloors []loopFloor
	curFloor   []loopFloor
	opBase     []int32
	loopBase   []int32

	// Instrumentation, both off by default: per-run counters (reset by Run,
	// surfaced as Result.Stats) and the timeline tracer.
	collectStats bool
	stats        Stats
	tracer       Tracer
}

// cursor is a rank's program counter: the index in its op store of the
// next op, and the end of the loop body it lies in.
type cursor struct{ pc, end int32 }

// loopState is a rank's place in its loop list: the index of its current
// loop, the start of the loop's body, and the iterations left after the
// current one.
type loopState struct{ loop, start, left int32 }

// loopFloor holds a loop's floor per iteration and the floor of all of its
// rank's later loops, each counted with its iterations.
type loopFloor struct{ body, tail float64 }

// NewEngine returns an empty Engine.
func NewEngine() *Engine { return &Engine{} }

// CollectStats enables (or disables) per-run statistics collection for
// subsequent Run calls. When enabled, Run attaches a Stats block to Result.
func (e *Engine) CollectStats(on bool) { e.collectStats = on }

// SetTracer installs a timeline tracer for subsequent Run calls (nil
// disables tracing).
func (e *Engine) SetTracer(t Tracer) { e.tracer = t }

// ErrExceeded is returned by RunWithin when the makespan is known to exceed
// the bound.
var ErrExceeded = errors.New("sim: makespan exceeds bound")

// Run executes prog against model. start gives per-rank start times (nil
// means all ranks start at time zero). obs may be nil.
func (e *Engine) Run(prog *Program, model CostModel, start []float64, obs Observer) (Result, error) {
	return e.run(prog, model, start, obs, math.Inf(1))
}

// RunWithin is Run without an observer that gives up early, returning
// ErrExceeded, once the makespan is known to exceed bound. Two lower bounds
// on the makespan decide the cut, both measured from the earliest start:
// a rank's clock, since clocks never decrease, checked at every start,
// before each send and rendezvous-size receive, and when the rank
// finishes; and a rank's clock plus the CostModel.MinCost floors of the
// ops it has left, checked before the first event and whenever a rank
// blocks. A rank's floor bound never decreases either, so checking it
// only at those points cuts later, never wrongly. Since every rank's final clock is
// checked, RunWithin returns ErrExceeded exactly when the makespan is
// greater than bound; a run that is not cut returns what Run returns.
func (e *Engine) RunWithin(prog *Program, model CostModel, start []float64, bound float64) (Result, error) {
	return e.run(prog, model, start, nil, bound)
}

func (e *Engine) run(prog *Program, model CostModel, start []float64, obs Observer, bound float64) (Result, error) {
	p := prog.NumRanks()
	if cap(e.clock) < p {
		e.clock = make([]float64, p)
		e.cur = make([]cursor, p)
		e.ls = make([]loopState, p)
	}
	e.clock = e.clock[:p]
	e.cur = e.cur[:p]
	e.ls = e.ls[:p]
	e.queue.reset(p)
	e.queued = 0
	// Each of the program's pairs starts with an empty inflight queue and no
	// parked receiver. The inflight backing arrays are kept across runs, so a
	// sweep of many programs on one engine does not churn the GC.
	e.pairs = slices.Grow(e.pairs[:0], prog.npairs)[:prog.npairs]
	for i := range e.pairs {
		e.pairs[i] = pairState{inflight: e.pairs[i].inflight[:0]}
	}
	e.prog = prog
	e.model = model
	e.obs = obs
	e.done = 0
	if e.collectStats {
		e.stats = Stats{}
	}
	// An unbounded run (every Run) computes no floors and pays one branch
	// per block and per loop entered.
	e.bounded = !math.IsInf(bound, 1)
	if e.bounded {
		e.floors(prog, model)
	}

	minStart, maxStart := 0.0, 0.0
	maxFloor := math.Inf(-1) // the largest rank's start plus all its floors
	for r := 0; r < p; r++ {
		t := 0.0
		if start != nil {
			t = start[r]
		}
		if r == 0 || t < minStart {
			minStart = t
		}
		if r == 0 || t > maxStart {
			maxStart = t
		}
		e.clock[r] = t
		if loops := prog.ranks[r].loops; len(loops) == 0 {
			e.cur[r] = cursor{} // at its end, as a finished rank's
			e.done++
		} else {
			e.enterLoop(r, 0)
			e.queue.put(int32(r), timeBits(t))
			e.queued++
			if e.bounded {
				maxFloor = max(maxFloor, e.lowerBound(r))
			}
		}
	}
	e.queue.build()
	// A floor bound is a differently rounded sum than the clock it bounds,
	// so it cuts only past a relative slack, far above the rounding error
	// of either sum and far below any gap between two schedules' times. A
	// run whose makespan equals bound is never cut.
	limit := minStart + bound + 0x1p-28*(bound+math.Abs(minStart))
	if maxFloor > limit || maxStart-minStart > bound {
		return Result{}, ErrExceeded
	}

	events := 0
	for {
		top := e.queue.nodes[1]
		if top.tb == absent {
			break
		}
		// Run this rank until it blocks, finishes, or another rank comes
		// first in (time, rank) order. A compute or an eager-size receive
		// reads and writes only the rank's own clock (a parked one is woken
		// at the time it would have computed), so the rank executes it
		// without touching the ready queue. Before a send or a
		// rendezvous-size receive, the ops that reach shared state, it
		// publishes its clock to its leaf and continues only while that leaf
		// is the root: the stateful cost-model calls happen in strict (time,
		// rank) order. Subtracting minStart from both sides of each bound
		// check keeps it monotone under rounding: t-minStart <= Result.Time
		// whenever t <= max(Finish).
		r := int(top.r)
		for {
			if c := e.cur[r]; c.pc == c.end && !e.advance(r) {
				e.done++
				e.queued--
				e.queue.set(top.r, absent)
				if checkTime(e.clock[r])-minStart > bound {
					return Result{}, ErrExceeded
				}
				break
			}
			if op := &e.prog.ranks[r].ops[e.cur[r].pc]; op.Kind != OpCompute && (op.Kind != OpRecv || !e.model.Eager(op.Bytes)) {
				e.queue.set(top.r, timeBits(e.clock[r]))
				if e.queue.nodes[1].r != top.r {
					break
				}
				if e.clock[r]-minStart > bound {
					return Result{}, ErrExceeded
				}
			}
			advanced, err := e.step(r)
			if err != nil {
				return Result{}, err
			}
			events++
			if e.collectStats && e.queued-1 > e.stats.PeakHeapDepth {
				e.stats.PeakHeapDepth = e.queued - 1
			}
			if !advanced {
				if e.collectStats {
					e.countBlocked(r)
				}
				e.queued--
				e.queue.set(top.r, absent)
				checkTime(e.clock[r])
				if e.bounded && e.lowerBound(r) > limit {
					return Result{}, ErrExceeded
				}
				break // blocked; woken later
			}
		}
	}

	if e.done != p {
		return Result{}, e.deadlockError(prog)
	}

	res := Result{Finish: append([]float64(nil), e.clock...), Events: events}
	if e.collectStats {
		s := e.stats
		s.countOps(prog, model)
		res.Stats = &s
	}
	if p > 0 {
		res.Time = slices.Max(e.clock) - minStart
	}
	return res, nil
}

// countBlocked counts the op rank r blocked on: a blocking rendezvous send
// waiting for its receiver, or a receive waiting for its message.
func (e *Engine) countBlocked(r int) {
	if e.prog.ranks[r].ops[e.cur[r].pc].Kind == OpRecv {
		e.stats.BlockedRecvs++
	} else {
		e.stats.BlockedSends++
	}
}

// advance moves rank r, whose cursor is at the end of a loop body, to the
// next iteration of the loop or to the start of the next loop. It reports
// false when the rank's program is finished.
func (e *Engine) advance(r int) bool {
	if ls := &e.ls[r]; ls.left > 0 {
		ls.left--
		e.cur[r].pc = ls.start
		return true
	}
	return e.nextLoop(r)
}

// nextLoop moves rank r to the start of its next loop, reporting false when
// it has none.
func (e *Engine) nextLoop(r int) bool {
	next := e.ls[r].loop + 1
	if int(next) == len(e.prog.ranks[r].loops) {
		return false
	}
	e.enterLoop(r, next)
	return true
}

// enterLoop points rank r's cursor at the first iteration of loop i.
func (e *Engine) enterLoop(r int, i int32) {
	l := e.prog.ranks[r].loops[i]
	e.ls[r] = loopState{loop: i, start: l.start, left: l.n - 1}
	e.cur[r] = cursor{l.start, l.start + l.len}
	if e.bounded {
		e.curFloor[r] = e.loopFloors[int(e.loopBase[r])+int(i)]
	}
}

// floors fills the engine's floor arrays for prog under model, in one pass
// over the stored ops: O(stored ops), however many times the loops run.
func (e *Engine) floors(prog *Program, model CostModel) {
	p := len(prog.ranks)
	e.opBase = slices.Grow(e.opBase[:0], p)[:p]
	e.loopBase = slices.Grow(e.loopBase[:0], p)[:p]
	e.curFloor = slices.Grow(e.curFloor[:0], p)[:p]
	nops, nloops := 0, 0
	for r := range prog.ranks {
		e.opBase[r], e.loopBase[r] = int32(nops), int32(nloops)
		nops += len(prog.ranks[r].ops)
		nloops += len(prog.ranks[r].loops)
	}
	e.floor = slices.Grow(e.floor[:0], nops)[:nops]
	e.loopFloors = slices.Grow(e.loopFloors[:0], nloops)[:nloops]
	for r := range prog.ranks {
		rp := &prog.ranks[r]
		floor := e.floor[e.opBase[r]:]
		lf := e.loopFloors[e.loopBase[r]:][:len(rp.loops)]
		for i, l := range rp.loops {
			sum := 0.0
			for pc := l.start + l.len - 1; pc >= l.start; pc-- {
				sum += model.MinCost(rp.ops[pc].Kind, rp.ops[pc].Bytes)
				floor[pc] = sum
			}
			lf[i].body = sum
		}
		tail := 0.0
		for i := len(lf) - 1; i >= 0; i-- {
			lf[i].tail = tail
			tail += float64(rp.loops[i].n) * lf[i].body
		}
	}
}

// lowerBound returns rank r's clock plus the floors of the ops it has left:
// a lower bound on its finish time in a bounded run.
func (e *Engine) lowerBound(r int) float64 {
	lf := &e.curFloor[r]
	lb := e.clock[r] + lf.tail + float64(e.ls[r].left)*lf.body
	if c := e.cur[r]; c.pc < c.end {
		lb += e.floor[int(e.opBase[r])+int(c.pc)]
	}
	return lb
}

// opIndex returns the position of rank r's next op in its expanded stream.
func (e *Engine) opIndex(r int) int {
	ls := e.ls[r]
	loops := e.prog.ranks[r].loops
	n := 0
	for _, l := range loops[:ls.loop] {
		n += int(l.len) * int(l.n)
	}
	l := loops[ls.loop]
	return n + int(l.n-1-ls.left)*int(l.len) + int(e.cur[r].pc-l.start)
}

// step executes the next op of rank r. It returns false when the rank
// blocked (without advancing pc).
func (e *Engine) step(r int) (bool, error) {
	rp := &e.prog.ranks[r]
	pc := e.cur[r].pc
	op := &rp.ops[pc]
	t0 := e.clock[r]
	switch op.Kind {
	case OpCompute:
		e.clock[r] += e.model.Compute(op.Bytes)
		e.cur[r].pc++
		if e.tracer != nil {
			e.tracer.OpSpan(int32(r), OpCompute, -1, op.Bytes, t0, e.clock[r], false)
		}
		return true, nil

	case OpSend, OpSendNB:
		if e.obs != nil && op.PayLen > 0 {
			if err := e.obs.OnSend(int32(r), e.prog.Pay[op.PayStart:op.PayStart+int32(op.PayLen)]); err != nil {
				return false, fmt.Errorf("rank %d op %d: %w", r, e.opIndex(r), err)
			}
		}
		ps := &e.pairs[rp.pair[pc]]
		receiverParked := ps.waiting && ps.head >= len(ps.inflight)
		if e.model.Eager(op.Bytes) {
			sdone, arr := e.model.SendEager(int32(r), op.Peer, op.Bytes, e.clock[r])
			if receiverParked {
				if ps.recvBytes != op.Bytes {
					return false, matchErr(r, int(op.Peer), op.Bytes, ps.recvBytes)
				}
				ps.waiting = false
				if err := e.wakeReceiver(int32(r), op.Peer, maxf(ps.recvPost, arr), ps.recvPost, op, false); err != nil {
					return false, err
				}
			} else {
				ps.inflight = append(ps.inflight, msgRec{ts: arr, bytes: op.Bytes,
					payStart: op.PayStart, payLen: op.PayLen, eager: true})
			}
			e.clock[r] = sdone
			e.cur[r].pc++
			if e.tracer != nil {
				e.tracer.OpSpan(int32(r), op.Kind, op.Peer, op.Bytes, t0, e.clock[r], false)
			}
			return true, nil
		}
		nb := op.Kind == OpSendNB
		if receiverParked {
			sdone, arr := e.model.SendRendezvous(int32(r), op.Peer, op.Bytes, e.clock[r], ps.recvPost)
			if ps.recvBytes != op.Bytes {
				return false, matchErr(r, int(op.Peer), op.Bytes, ps.recvBytes)
			}
			ps.waiting = false
			if err := e.wakeReceiver(int32(r), op.Peer, arr, ps.recvPost, op, true); err != nil {
				return false, err
			}
			if nb {
				e.clock[r] += e.model.PostOverhead(op.Bytes)
			} else {
				e.clock[r] = sdone
			}
			e.cur[r].pc++
			if e.tracer != nil {
				e.tracer.OpSpan(int32(r), op.Kind, op.Peer, op.Bytes, t0, e.clock[r], true)
			}
			return true, nil
		}
		// Record the pending rendezvous. A blocking sender parks until the
		// receiver posts; a non-blocking sender proceeds.
		ps.inflight = append(ps.inflight, msgRec{ts: e.clock[r], bytes: op.Bytes,
			payStart: op.PayStart, payLen: op.PayLen, eager: false, nb: nb})
		if nb {
			e.clock[r] += e.model.PostOverhead(op.Bytes)
			e.cur[r].pc++
			if e.tracer != nil {
				e.tracer.OpSpan(int32(r), op.Kind, op.Peer, op.Bytes, t0, e.clock[r], true)
			}
			return true, nil
		}
		return false, nil

	default: // OpRecv
		ps := &e.pairs[rp.pair[pc]]
		if ps.head >= len(ps.inflight) {
			ps.waiting = true
			ps.recvPost = e.clock[r]
			ps.recvBytes = op.Bytes
			return false, nil
		}
		rec := &ps.inflight[ps.head]
		ps.head++
		if rec.bytes != op.Bytes {
			return false, matchErr(int(op.Peer), r, rec.bytes, op.Bytes)
		}
		var arrival float64
		if rec.eager {
			arrival = maxf(e.clock[r], rec.ts)
		} else {
			sdone, arr := e.model.SendRendezvous(op.Peer, int32(r), rec.bytes, rec.ts, e.clock[r])
			arrival = arr
			if !rec.nb {
				// Wake the parked blocking sender.
				s := op.Peer
				e.clock[s] = sdone
				e.cur[s].pc++
				e.queued++
				e.queue.set(s, timeBits(sdone))
				if e.tracer != nil {
					e.tracer.OpSpan(s, OpSend, int32(r), rec.bytes, rec.ts, sdone, true)
				}
			}
		}
		e.clock[r] = arrival + e.model.RecvOverhead(op.Bytes)
		if e.obs != nil && rec.payLen > 0 {
			if err := e.obs.OnDeliver(int32(r), e.prog.Pay[rec.payStart:rec.payStart+int32(rec.payLen)]); err != nil {
				return false, fmt.Errorf("deliver to rank %d: %w", r, err)
			}
		}
		if ps.head == len(ps.inflight) {
			ps.inflight = ps.inflight[:0]
			ps.head = 0
		}
		e.cur[r].pc++
		if e.tracer != nil {
			e.tracer.OpSpan(int32(r), OpRecv, op.Peer, op.Bytes, t0, e.clock[r], !rec.eager)
		}
		return true, nil
	}
}

// wakeReceiver finishes the receive parked at rank dst: the receiver's clock
// advances to arrival + overhead and it becomes runnable again. src is the
// sending rank, recvPost the time the receive was posted (the start of its
// timeline span), rendezvous the protocol of the matching send.
func (e *Engine) wakeReceiver(src, dst int32, arrival, recvPost float64, op *Op, rendezvous bool) error {
	e.clock[dst] = arrival + e.model.RecvOverhead(op.Bytes)
	e.cur[dst].pc++
	e.queued++
	e.queue.set(dst, timeBits(e.clock[dst]))
	if e.tracer != nil {
		e.tracer.OpSpan(dst, OpRecv, src, op.Bytes, recvPost, e.clock[dst], rendezvous)
	}
	if e.obs != nil && op.PayLen > 0 {
		if err := e.obs.OnDeliver(dst, e.prog.Pay[op.PayStart:op.PayStart+int32(op.PayLen)]); err != nil {
			return fmt.Errorf("deliver to rank %d: %w", dst, err)
		}
	}
	return nil
}

// maxListedBlocked caps the blocked ranks a deadlock error lists.
const maxListedBlocked = 8

// deadlockError lists the blocked ranks in rank order, the first
// maxListedBlocked of them in full and the rest as a count. Once the ready
// queue is empty, a rank whose cursor is at the end of its body has
// finished, and every other rank is blocked at its op pc.
func (e *Engine) deadlockError(prog *Program) error {
	var blocked []string
	more := 0
	for r, c := range e.cur {
		if c.pc == c.end {
			continue
		}
		if len(blocked) == maxListedBlocked {
			more++
			continue
		}
		op := prog.ranks[r].ops[e.cur[r].pc]
		kind := "recv from"
		if op.Kind == OpSend {
			kind = "send(rvz) to"
		}
		blocked = append(blocked, fmt.Sprintf("rank %d pc %d: %s %d (%d B)", r, e.opIndex(r), kind, op.Peer, op.Bytes))
	}
	if more > 0 {
		blocked = append(blocked, fmt.Sprintf("... (%d more)", more))
	}
	return fmt.Errorf("sim: deadlock; blocked ranks: %v", blocked)
}

func matchErr(src, dst int, sent, recv uint32) error {
	return fmt.Errorf("sim: message size mismatch %d->%d: sent %d B, receive posted %d B", src, dst, sent, recv)
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// readyTree is the scheduler's ready queue: an indexed winner (tournament)
// tree with one leaf per rank. nodes[size+r] holds rank r's next event time,
// or absent while the rank is blocked or done; each inner node
// nodes[i] holds the earlier of its children nodes[2i] and nodes[2i+1], so
// nodes[1] is the earliest ready rank. Leaves are in rank order and a tie at
// an inner node goes to the left child, which makes the order (time, rank):
// with at most one entry per rank, every key is unique and the pop sequence
// is the same as any exact priority queue's.
//
// A rank keeps its leaf while it runs, so yielding and resuming is one
// leaf-to-root walk (set) instead of a push and a pop, and the walk's
// compare is branchless: the scheduler's hottest code would otherwise
// mispredict on nearly every level.
type readyTree struct {
	size  int // number of leaves: the smallest power of two >= the rank count
	nodes []entry
}

type entry struct {
	tb uint64 // timeBits(time), or absent
	r  int32
}

// absent marks the leaf of a rank that is not ready. It orders after every
// timeBits value, +Inf included (timeBits never returns all ones: that
// would be a NaN).
const absent = ^uint64(0)

// reset sizes the tree for p ranks with every leaf absent; put then fills
// the ready leaves and build computes the inner nodes.
func (q *readyTree) reset(p int) {
	q.size = 1
	for q.size < p {
		q.size <<= 1
	}
	if cap(q.nodes) < 2*q.size {
		q.nodes = make([]entry, 2*q.size)
	}
	q.nodes = q.nodes[:2*q.size]
	for r := 0; r < q.size; r++ {
		q.nodes[q.size+r] = entry{absent, int32(r)}
	}
}

func (q *readyTree) put(r int32, tb uint64) { q.nodes[q.size+int(r)] = entry{tb, r} }

func (q *readyTree) build() {
	n := q.nodes
	for i := q.size - 1; i >= 1; i-- {
		if l, r := n[2*i], n[2*i+1]; r.tb < l.tb {
			n[i] = r
		} else {
			n[i] = l
		}
	}
}

// set changes rank r's leaf to tb and replays the matches on its path to
// the root, stopping at the first inner node whose winner is unchanged:
// every node above it is a function of the same children.
func (q *readyTree) set(r int32, tb uint64) {
	n := q.nodes
	i := q.size + int(r)
	cur := entry{tb, r}
	n[i] = cur
	for i > 1 {
		// A left sibling (i odd) wins ties: subtracting i&1 turns the strict
		// compare into <= without a branch. tb is never 0 (timeBits sets the
		// top bit or flips a set sign bit), so the subtraction cannot wrap.
		if sib := n[i^1]; sib.tb-uint64(i&1) < cur.tb {
			cur = sib
		}
		i >>= 1
		if n[i] == cur {
			return
		}
		n[i] = cur
	}
}

// timeBits maps a float64 time to a uint64 whose unsigned ordering matches
// the float ordering for every non-NaN value, including negatives: the sign
// bit is flipped for non-negative values and all bits are flipped for
// negative ones. Raw math.Float64bits ordering is only valid for t >= 0,
// and fault plans apply clock-outlier adjustments to rank start times — a
// negative start must not silently reorder the ready queue. NaN has no
// place in a simulated clock at all and is rejected outright.
func timeBits(t float64) uint64 {
	b := math.Float64bits(checkTime(t))
	if b&(1<<63) != 0 {
		return ^b
	}
	return b | 1<<63
}

// checkTime returns the clock value t, panicking if it is NaN. A rank
// publishes its clock through it whenever its leaf changes: a NaN clock
// means a cost model returned garbage, and continuing would order events
// arbitrarily or, through a max, drop the NaN silently.
func checkTime(t float64) float64 {
	if math.IsNaN(t) {
		//mpicollvet:ignore panicguard scheduler invariant: a NaN event time means a cost model returned garbage; continuing would order events arbitrarily
		panic("sim: NaN event time entered the ready queue")
	}
	return t
}

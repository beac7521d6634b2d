package sim

import (
	"slices"
	"testing"
)

// TestBuilderStoresLiterally checks that ops appended outside a Repeat are
// stored one for one, as one literal run, even when they repeat, and that
// in verify mode every send keeps its own payload.
func TestBuilderStoresLiterally(t *testing.T) {
	for _, verify := range []bool{false, true} {
		b := NewBuilder(2, verify)
		var want []Op
		for i := 0; i < 50; i++ {
			b.Send(0, 1, 64, PayUnit{Block: int32(i), Mask: 1})
			b.Recv(0, 1, 64)
			send := Op{Kind: OpSend, Peer: 1, Bytes: 64, PayStart: -1}
			if verify {
				send.PayStart, send.PayLen = int32(i), 1
			}
			want = append(want, send, Op{Kind: OpRecv, Peer: 1, Bytes: 64, PayStart: -1})
		}
		prog := b.Build()
		if got := prog.Expand(0); !slices.Equal(got, want) {
			t.Errorf("verify=%t: expanded %d ops differ from the %d appended", verify, len(got), len(want))
		}
		if prog.NumOps() != len(want) {
			t.Errorf("verify=%t: NumOps %d, want %d", verify, prog.NumOps(), len(want))
		}
		rp := prog.ranks[0]
		if len(rp.ops) != len(want) || !slices.Equal(rp.loops, []loop{{start: 0, len: int32(len(want)), n: 1}}) {
			t.Errorf("verify=%t: %d ops stored in loops %v, want all %d in one literal run", verify, len(rp.ops), rp.loops, len(want))
		}
		if len(prog.ranks[1].loops) != 0 {
			t.Errorf("verify=%t: rank 1 has loops %v and no ops", verify, prog.ranks[1].loops)
		}
	}
}

// appendOps feeds ops to rank 0 of a fresh one-rank builder through the
// public calls and returns the built program.
func appendOps(ops []Op) *Program {
	b := NewBuilder(1, false)
	for _, op := range ops {
		emitOp(b, 0, op, 0)
	}
	return b.Build()
}

// period returns reps repetitions of a body of k distinct ops.
func period(k, reps int) []Op {
	var ops []Op
	for i := 0; i < reps; i++ {
		for j := 0; j < k; j++ {
			ops = append(ops, Op{Kind: OpSendNB, Peer: int32(j), Bytes: 64, PayStart: -1})
		}
	}
	return ops
}

// TestFoldExpandsToAppendedOps checks that periodic and aperiodic streams
// appended outside a Repeat expand to exactly the ops appended and are
// stored one for one: only Repeat folds.
func TestFoldExpandsToAppendedOps(t *testing.T) {
	recv := func(peer int32) Op { return Op{Kind: OpRecv, Peer: peer, Bytes: 64, PayStart: -1} }
	cases := []struct {
		name string
		ops  []Op
	}{
		{"empty", nil},
		{"single", period(1, 1)},
		{"period 1", period(1, 100)},
		{"period 2", period(2, 100)},
		{"period 3", period(3, 100)},
		{"period 8", period(8, 100)},
		{"period 9", period(9, 10)},
		{"partial last iteration", period(5, 20)[:98]},
		{"mismatch mid-iteration", append(period(4, 10)[:38], recv(9), recv(9))},
		{"loop then new loop", append(period(3, 10), period(2, 10)...)},
		{"prefix then loop", append([]Op{recv(5), recv(6), recv(7)}, period(2, 10)...)},
	}
	for _, c := range cases {
		prog := appendOps(c.ops)
		if got := prog.Expand(0); !slices.Equal(got, c.ops) {
			t.Errorf("%s: expanded %d ops differ from the %d appended", c.name, len(got), len(c.ops))
		}
		if prog.NumOps() != len(c.ops) {
			t.Errorf("%s: NumOps %d, want %d", c.name, prog.NumOps(), len(c.ops))
		}
		rp := prog.ranks[0]
		if len(rp.ops) != len(c.ops) || len(rp.loops) > 1 {
			t.Errorf("%s: %d ops stored (loops %v), want %d in at most one literal run", c.name, len(rp.ops), rp.loops, len(c.ops))
		}
	}
}

// TestFoldKeepsPayloadOps checks that in verify mode every payload send is
// stored with its own payload, so the Tracker sees each one, and that the
// receives between them are stored too.
func TestFoldKeepsPayloadOps(t *testing.T) {
	b := NewBuilder(2, true)
	for i := 0; i < 50; i++ {
		b.Send(0, 1, 64, PayUnit{Block: 0, Mask: 1})
		b.Recv(1, 0, 64)
	}
	prog := b.Build()
	if got := len(prog.ranks[0].ops); got != 50 {
		t.Errorf("%d payload sends stored, want all 50", got)
	}
	if got := len(prog.ranks[1].ops); got != 50 {
		t.Errorf("%d receives stored, want all 50", got)
	}
	for i, op := range prog.Expand(0) {
		if op.PayStart != int32(i) || op.PayLen != 1 {
			t.Fatalf("send %d carries payload [%d,+%d), want [%d,+1)", i, op.PayStart, op.PayLen, i)
		}
	}
}

// emitOp appends op to rank on b. A send carries a payload naming block
// blk, so in verify mode each call records a distinct one.
func emitOp(b *Builder, rank int, op Op, blk int) {
	switch op.Kind {
	case OpSend:
		b.Send(rank, int(op.Peer), int64(op.Bytes), PayUnit{Block: int32(blk), Mask: 1})
	case OpSendNB:
		b.SendNB(rank, int(op.Peer), int64(op.Bytes))
	case OpRecv:
		b.Recv(rank, int(op.Peer), int64(op.Bytes))
	default:
		b.Compute(rank, int64(op.Bytes))
	}
}

// randChunk is one random stretch of a rank's stream: n iterations of a
// body that emits the ops pre, then in iterations of the ops inner, then
// the ops post.
type randChunk struct {
	rank, n, in      int
	pre, inner, post []Op
}

// newRandChunk draws a chunk over p ranks with up to maxN iterations;
// iterations and inner iterations may be 0 or 1.
func newRandChunk(pick func(int) int, p, maxN int) randChunk {
	ops := func(n int) []Op {
		out := make([]Op, n)
		for i := range out {
			out[i] = Op{Kind: OpKind(pick(4)), Peer: int32(pick(p)), Bytes: uint32(8 * (1 + pick(2)))}
		}
		return out
	}
	c := randChunk{rank: pick(p), n: pick(maxN + 1), pre: ops(pick(3)), post: ops(1 + pick(2))}
	if pick(2) == 0 {
		c.in, c.inner = pick(4), ops(1+pick(2))
	}
	return c
}

// iteration emits iteration i of c on b, its inner ops through emitInner.
// A send in the body names block i; one in the inner loop, i*8 + j.
func (c randChunk) iteration(b *Builder, i int, emitInner func(n int, body func(j int))) {
	for _, op := range c.pre {
		emitOp(b, c.rank, op, i)
	}
	emitInner(c.in, func(j int) {
		for _, op := range c.inner {
			emitOp(b, c.rank, op, i*8+j)
		}
	})
	for _, op := range c.post {
		emitOp(b, c.rank, op, i)
	}
}

// repeat emits c on b through Repeat, the inner loop through a nested one.
func (c randChunk) repeat(b *Builder) {
	b.Repeat(c.rank, c.n, func(i int) {
		c.iteration(b, i, func(n int, body func(int)) { b.Repeat(c.rank, n, body) })
	})
}

// unroll emits c on b op by op.
func (c randChunk) unroll(b *Builder) {
	for i := 0; i < c.n; i++ {
		c.iteration(b, i, func(n int, body func(int)) {
			for j := 0; j < n; j++ {
				body(j)
			}
		})
	}
}

func TestBuildNumbersPairs(t *testing.T) {
	rng := NewRNG(11)
	pick := func(n int) int { return int(rng.Uint64() % uint64(n)) }
	// pair is the (sender, receiver) of a send or receive on rank r.
	pair := func(r int, op Op) [2]int32 {
		if op.Kind == OpRecv {
			return [2]int32{op.Peer, int32(r)}
		}
		return [2]int32{int32(r), op.Peer}
	}
	folded, nested := 0, 0
	for trial := 0; trial < 1000; trial++ {
		verify := trial%2 == 1
		p := 1 + pick(6)
		b := NewBuilder(p, verify)
		// Repeats, some with a nested Repeat, make the builder fold; in
		// verify mode they unroll, and some sends carry a payload.
		for chunk := pick(12); chunk >= 0; chunk-- {
			c := newRandChunk(pick, p, 10)
			if !verify && c.n >= 2 && c.in >= 2 {
				nested++
			}
			c.repeat(b)
		}
		prog := b.Build()

		expanded := map[[2]int32]bool{}
		for r := 0; r < p; r++ {
			for _, op := range prog.Expand(r) {
				if op.Kind != OpCompute {
					expanded[pair(r, op)] = true
				}
			}
		}
		if prog.npairs != len(expanded) {
			t.Fatalf("trial %d: npairs %d, want %d distinct pairs", trial, prog.npairs, len(expanded))
		}
		keyOf := make(map[int32][2]int32, prog.npairs)
		idOf := map[[2]int32]int32{}
		stored := 0
		for r, rp := range prog.ranks {
			stored += len(rp.ops)
			if len(rp.pair) != len(rp.ops) {
				t.Fatalf("trial %d rank %d: %d pair ids for %d stored ops", trial, r, len(rp.pair), len(rp.ops))
			}
			for i, op := range rp.ops {
				id := rp.pair[i]
				if op.Kind == OpCompute {
					if id != -1 {
						t.Fatalf("trial %d rank %d op %d: compute has pair id %d", trial, r, i, id)
					}
					continue
				}
				key := pair(r, op)
				if id < 0 || int(id) >= prog.npairs {
					t.Fatalf("trial %d rank %d op %d: pair id %d outside [0, %d)", trial, r, i, id, prog.npairs)
				}
				if prev, ok := idOf[key]; ok && prev != id {
					t.Fatalf("trial %d: pair %v has ids %d and %d", trial, key, prev, id)
				}
				if k, ok := keyOf[id]; ok && k != key {
					t.Fatalf("trial %d: pair id %d shared by %v and %v", trial, id, k, key)
				}
				keyOf[id], idOf[key] = key, id
			}
		}
		if len(idOf) != prog.npairs {
			t.Fatalf("trial %d: %d of %d pair ids used", trial, len(idOf), prog.npairs)
		}
		if stored < prog.NumOps() {
			folded++
		}
	}
	if folded == 0 || nested == 0 {
		t.Fatalf("%d trials folded a Repeat, %d nested Repeats ran inside a stored loop", folded, nested)
	}
}

// expandPairs returns the pair id of every op of rank r's expanded stream.
func expandPairs(prog *Program, r int) []int32 {
	rp := &prog.ranks[r]
	var out []int32
	for _, l := range rp.loops {
		for i := int32(0); i < l.n; i++ {
			out = append(out, rp.pair[l.start:l.start+l.len]...)
		}
	}
	return out
}

func TestRepeatEqualsUnrolledBody(t *testing.T) {
	rng := NewRNG(23)
	pick := func(n int) int { return int(rng.Uint64() % uint64(n)) }
	// Nested Repeats run inside a loop body being stored, and inside a
	// body that runs once.
	inLoop, inOnce := 0, 0
	for trial := 0; trial < 2000; trial++ {
		verify := trial%2 == 1
		p := 1 + pick(5)
		rep, unrolled := NewBuilder(p, verify), NewBuilder(p, verify)
		for chunk := pick(10); chunk >= 0; chunk-- {
			c := newRandChunk(pick, p, 5)
			if !verify && c.in >= 2 {
				switch c.n {
				case 1:
					inOnce++
				case 0:
				default:
					inLoop++
				}
			}
			c.repeat(rep)
			c.unroll(unrolled)
		}
		got, want := rep.Build(), unrolled.Build()
		if got.NumOps() != want.NumOps() || got.npairs != want.npairs {
			t.Fatalf("trial %d: %d ops, %d pairs; unrolled %d ops, %d pairs",
				trial, got.NumOps(), got.npairs, want.NumOps(), want.npairs)
		}
		if !slices.Equal(got.Pay, want.Pay) {
			t.Fatalf("trial %d: payload tables differ", trial)
		}
		for r := 0; r < p; r++ {
			if g, w := got.Expand(r), want.Expand(r); !slices.Equal(g, w) {
				t.Fatalf("trial %d rank %d: expanded %v, unrolled %v", trial, r, g, w)
			}
			if g, w := expandPairs(got, r), expandPairs(want, r); !slices.Equal(g, w) {
				t.Fatalf("trial %d rank %d: pair ids %v, unrolled %v", trial, r, g, w)
			}
		}
	}
	if inLoop == 0 || inOnce == 0 {
		t.Fatalf("%d nested Repeats ran inside a stored loop, %d inside a body run once", inLoop, inOnce)
	}
}

func TestRepeatStoresBodyOnce(t *testing.T) {
	b := NewBuilder(2, false)
	b.Recv(0, 1, 8) // a literal op before the loop
	b.Repeat(0, 1000, func(int) {
		b.SendNB(0, 1, 64)
		// A nested Repeat unrolls into the body.
		b.Repeat(0, 2, func(int) { b.Recv(0, 1, 64) })
		b.Compute(0, 64)
	})
	b.Repeat(1, 0, func(int) { b.Recv(1, 0, 64) })
	prog := b.Build()
	if prog.NumOps() != 4001 {
		t.Errorf("NumOps %d, want 4001", prog.NumOps())
	}
	want := []loop{{start: 0, len: 1, n: 1}, {start: 1, len: 4, n: 1000}}
	if rp := prog.ranks[0]; len(rp.ops) != 5 || !slices.Equal(rp.loops, want) {
		t.Errorf("%d ops stored in loops %v, want 5 in %v", len(rp.ops), rp.loops, want)
	}
	if got := len(prog.ranks[1].ops); got != 0 {
		t.Errorf("rank 1: %d ops stored after a Repeat of 0 iterations", got)
	}
}

func TestRepeatPanicsOnAnotherRank(t *testing.T) {
	for _, verify := range []bool{false, true} {
		for _, c := range []struct {
			name string
			body func(b *Builder) func(int)
		}{
			{"op on another rank", func(b *Builder) func(int) {
				return func(int) { b.Recv(1, 0, 8) }
			}},
			{"nested Repeat on another rank", func(b *Builder) func(int) {
				return func(int) { b.Repeat(1, 2, func(int) { b.Recv(1, 0, 8) }) }
			}},
		} {
			b := NewBuilder(2, verify)
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("verify=%t, %s: no panic", verify, c.name)
					}
				}()
				b.Repeat(0, 3, c.body(b))
			}()
		}
	}
}

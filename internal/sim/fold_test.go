package sim

import (
	"slices"
	"testing"
)

// appendOps feeds ops to rank 0 of a fresh one-rank builder through the
// public calls and returns the built program.
func appendOps(ops []Op) *Program {
	b := NewBuilder(1, false)
	for _, op := range ops {
		switch op.Kind {
		case OpSend:
			b.Send(0, int(op.Peer), int64(op.Bytes))
		case OpSendNB:
			b.SendNB(0, int(op.Peer), int64(op.Bytes))
		case OpRecv:
			b.Recv(0, int(op.Peer), int64(op.Bytes))
		default:
			b.Compute(0, int64(op.Bytes))
		}
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

func TestFoldExpandsToAppendedOps(t *testing.T) {
	recv := func(peer int32) Op { return Op{Kind: OpRecv, Peer: peer, Bytes: 64, PayStart: -1} }
	cases := []struct {
		name   string
		ops    []Op
		stored int // ops in the rank's store
	}{
		{"empty", nil, 0},
		{"single", period(1, 1), 1},
		{"period 1", period(1, 100), 1},
		{"period 2", period(2, 100), 2},
		{"period 3", period(3, 100), 3},
		{"period 4", period(4, 100), 4},
		{"period 5", period(5, 100), 5},
		{"period 6", period(6, 100), 6},
		{"period 7", period(7, 100), 7},
		{"period 8", period(8, 100), 8},
		{"period above the maximum", period(maxPeriod+1, 10), 10 * (maxPeriod + 1)},
		{"partial last iteration", period(5, 20)[:98], 5 + 3},
		{"mismatch mid-iteration", append(period(4, 10)[:38], recv(9), recv(9)), 4 + 2 + 1},
		{"loop then new loop", append(period(3, 10), period(2, 10)...), 3 + 2},
		{"prefix then loop", append([]Op{recv(5), recv(6), recv(7)}, period(2, 10)...), 3 + 2},
	}
	for _, c := range cases {
		prog := appendOps(c.ops)
		if got := prog.Expand(0); !slices.Equal(got, c.ops) {
			t.Errorf("%s: expanded %d ops differ from the %d appended", c.name, len(got), len(c.ops))
		}
		if prog.NumOps() != len(c.ops) {
			t.Errorf("%s: NumOps %d, want %d", c.name, prog.NumOps(), len(c.ops))
		}
		if got := len(prog.ranks[0].ops); got != c.stored {
			t.Errorf("%s: %d ops stored (loops %v), want %d", c.name, got, prog.ranks[0].loops, c.stored)
		}
	}
}

func TestFoldKeepsPayloadOps(t *testing.T) {
	// In verify mode a send with a payload is never folded, so the Tracker
	// sees every one; the receives between them still fold.
	b := NewBuilder(2, true)
	for i := 0; i < 50; i++ {
		b.Send(0, 1, 64, PayUnit{Block: 0, Mask: 1})
		b.Recv(1, 0, 64)
	}
	prog := b.Build()
	if got := len(prog.ranks[0].ops); got != 50 {
		t.Errorf("%d payload sends stored, want all 50", got)
	}
	if got := len(prog.ranks[1].ops); got != 1 {
		t.Errorf("%d receives stored, want 1", got)
	}
	for i, op := range prog.Expand(0) {
		if op.PayStart != int32(i) || op.PayLen != 1 {
			t.Fatalf("send %d carries payload [%d,+%d), want [%d,+1)", i, op.PayStart, op.PayLen, i)
		}
	}
}

func TestFoldRandomStreams(t *testing.T) {
	rng := NewRNG(7)
	for trial := 0; trial < 2000; trial++ {
		alpha := 1 + int(rng.Uint64()%4)
		n := int(rng.Uint64() % 64)
		ops := make([]Op, n)
		for i := range ops {
			ops[i] = Op{Kind: OpRecv, Peer: int32(rng.Uint64() % uint64(alpha)), Bytes: 8, PayStart: -1}
		}
		prog := appendOps(ops)
		if got := prog.Expand(0); !slices.Equal(got, ops) {
			t.Fatalf("trial %d: expanded %v, appended %v (loops %v)", trial, got, ops, prog.ranks[0].loops)
		}
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
	folded := 0
	for trial := 0; trial < 1000; trial++ {
		verify := trial%2 == 1
		p := 1 + pick(6)
		b := NewBuilder(p, verify)
		// Repeated bodies make the builder fold; in verify mode some sends
		// carry a payload and so stay unfolded.
		for chunk := pick(12); chunk >= 0; chunk-- {
			rank, body := pick(p), make([]Op, 1+pick(4))
			for i := range body {
				body[i] = Op{Kind: OpKind(pick(4)), Peer: int32(pick(p)), Bytes: uint32(8 * (1 + pick(2)))}
			}
			for reps := 1 + pick(10); reps > 0; reps-- {
				for _, op := range body {
					switch op.Kind {
					case OpSend:
						b.Send(rank, int(op.Peer), int64(op.Bytes), PayUnit{Block: int32(rank), Mask: 1})
					case OpSendNB:
						b.SendNB(rank, int(op.Peer), int64(op.Bytes))
					case OpRecv:
						b.Recv(rank, int(op.Peer), int64(op.Bytes))
					default:
						b.Compute(rank, int64(op.Bytes))
					}
				}
			}
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
	if folded == 0 {
		t.Fatal("no trial folded a repeat")
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

func TestRepeatEqualsUnrolledBody(t *testing.T) {
	rng := NewRNG(23)
	pick := func(n int) int { return int(rng.Uint64() % uint64(n)) }
	randOps := func(p, n int) []Op {
		ops := make([]Op, n)
		for i := range ops {
			ops[i] = Op{Kind: OpKind(pick(4)), Peer: int32(pick(p)), Bytes: uint32(8 * (1 + pick(2)))}
		}
		return ops
	}
	afterOpenLoop := 0
	for trial := 0; trial < 2000; trial++ {
		verify := trial%2 == 1
		p := 1 + pick(5)
		rep, unrolled := NewBuilder(p, verify), NewBuilder(p, verify)
		for chunk := pick(10); chunk >= 0; chunk-- {
			rank := pick(p)
			if pick(2) == 0 {
				// Plain ops, repeated so that the detector opens a loop,
				// sometimes cut mid-iteration.
				ops := randOps(p, 1+pick(3))
				reps, cut := 1+pick(4), pick(len(ops)+1)
				for i := 0; i < reps*len(ops)+cut; i++ {
					emitOp(rep, rank, ops[i%len(ops)], i)
					emitOp(unrolled, rank, ops[i%len(ops)], i)
				}
				continue
			}
			// A Repeat of n = 0..5 iterations of a body whose payloads name
			// the iteration.
			n, body := pick(6), randOps(p, 1+pick(4))
			if !verify && n >= 2 && rep.pos[rank] >= 0 {
				afterOpenLoop++ // Repeat must close the loop first
			}
			rep.Repeat(rank, n, func(i int) {
				for _, op := range body {
					emitOp(rep, rank, op, i)
				}
			})
			for i := 0; i < n; i++ {
				for _, op := range body {
					emitOp(unrolled, rank, op, i)
				}
			}
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
	if afterOpenLoop == 0 {
		t.Fatal("no Repeat followed an open detector loop")
	}
}

func TestRepeatStoresBodyOnce(t *testing.T) {
	b := NewBuilder(2, false)
	b.Recv(0, 1, 8) // a literal op before the loop
	b.Repeat(0, 1000, func(int) {
		b.SendNB(0, 1, 64)
		b.Recv(0, 1, 64)
		b.Compute(0, 64)
	})
	b.Repeat(1, 0, func(int) { b.Recv(1, 0, 64) })
	prog := b.Build()
	if prog.NumOps() != 3001 {
		t.Errorf("NumOps %d, want 3001", prog.NumOps())
	}
	if got := len(prog.ranks[0].ops); got != 4 {
		t.Errorf("%d ops stored (loops %v), want 4", got, prog.ranks[0].loops)
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
			{"nested Repeat", func(b *Builder) func(int) {
				return func(int) { b.Repeat(0, 2, func(int) { b.Recv(0, 1, 8) }) }
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

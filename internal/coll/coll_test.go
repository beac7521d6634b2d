package coll

import (
	"testing"
	"testing/quick"

	"mpicollpred/internal/netmodel"
)

func topoOf(n, ppn int) netmodel.Topology { return netmodel.Topology{Nodes: n, PPN: ppn} }

// segSizes lists the segments of segRuns(m, seg), one size each.
func segSizes(m, seg int64) []int64 {
	var out []int64
	for _, r := range segRuns(m, seg) {
		for i := 0; i < r.n; i++ {
			out = append(out, r.size)
		}
	}
	return out
}

func TestSegSizes(t *testing.T) {
	cases := []struct {
		m, seg int64
		want   []int64
	}{
		{0, 0, []int64{0}},
		{10, 0, []int64{10}},
		{10, 20, []int64{10}},
		{10, 10, []int64{10}},
		{10, 4, []int64{4, 4, 2}},
		{12, 4, []int64{4, 4, 4}},
		{1, 4, []int64{1}},
	}
	for _, c := range cases {
		got := segSizes(c.m, c.seg)
		if len(got) != len(c.want) {
			t.Errorf("segSizes(%d,%d) = %v, want %v", c.m, c.seg, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("segSizes(%d,%d) = %v, want %v", c.m, c.seg, got, c.want)
				break
			}
		}
	}
}

func TestSegSizesSumProperty(t *testing.T) {
	f := func(m16, seg16 uint16) bool {
		m, seg := int64(m16), int64(seg16)
		var sum int64
		for _, s := range segSizes(m, seg) {
			if s < 0 {
				return false
			}
			sum += s
		}
		if m <= 0 {
			return sum == 0
		}
		return sum == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestChunkSizesSumProperty(t *testing.T) {
	f := func(m32 uint32, p8 uint8) bool {
		p := int(p8%32) + 1
		m := int64(m32 % (1 << 22))
		cs := chunkSizes(m, p)
		if len(cs) != p {
			return false
		}
		var sum int64
		for i, c := range cs {
			if c < 0 {
				return false
			}
			// Nearly equal: earlier chunks never smaller than later ones.
			if i > 0 && c > cs[i-1] {
				return false
			}
			sum += c
		}
		return sum == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKnomialTreeStructure(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 5, 8, 9, 16, 27, 31, 64} {
		for _, k := range []int{2, 3, 4, 8} {
			tr := knomialTree(p, k)
			if tr.parent[0] != -1 {
				t.Fatalf("p=%d k=%d: root has parent %d", p, k, tr.parent[0])
			}
			// Every non-root reaches the root; depth bounded by log_k(p)+1.
			for r := 1; r < p; r++ {
				hops, cur := 0, r
				for cur != 0 {
					cur = tr.parent[cur]
					hops++
					if hops > p {
						t.Fatalf("p=%d k=%d: cycle at rank %d", p, k, r)
					}
					if cur < 0 {
						t.Fatalf("p=%d k=%d: rank %d detached", p, k, r)
					}
				}
			}
			// Children partition ranks 1..p-1.
			seen := make([]bool, p)
			for r := 0; r < p; r++ {
				for _, c := range tr.children[r] {
					if seen[c] {
						t.Fatalf("p=%d k=%d: rank %d has two parents", p, k, c)
					}
					seen[c] = true
					if tr.parent[c] != r {
						t.Fatalf("p=%d k=%d: parent/children mismatch at %d", p, k, c)
					}
				}
			}
			// Subtree spans are contiguous and consistent with sizes.
			sizes := tr.subtreeSize()
			if sizes[0] != p {
				t.Fatalf("p=%d k=%d: root subtree size %d", p, k, sizes[0])
			}
			for r := 0; r < p; r++ {
				if sizes[r] != tr.span[r] {
					t.Fatalf("p=%d k=%d rank=%d: size %d != span %d", p, k, r, sizes[r], tr.span[r])
				}
			}
		}
	}
}

func TestBinaryTreeStructure(t *testing.T) {
	for _, p := range []int{1, 2, 3, 7, 10, 31} {
		tr := binaryTree(p)
		for r := 1; r < p; r++ {
			if tr.parent[r] != (r-1)/2 {
				t.Fatalf("p=%d: parent of %d = %d", p, r, tr.parent[r])
			}
		}
		for r := 0; r < p; r++ {
			if len(tr.children[r]) > 2 {
				t.Fatalf("p=%d: rank %d has %d children", p, r, len(tr.children[r]))
			}
		}
		if tr.subtreeSize()[0] != p {
			t.Fatalf("p=%d: bad root subtree", p)
		}
	}
}

func TestLeaders(t *testing.T) {
	topo := struct{ Nodes, PPN int }{3, 4}
	leaders, leaderOf := leadersOf(topoOf(topo.Nodes, topo.PPN))
	want := []int{0, 4, 8}
	for i, l := range leaders {
		if l != want[i] {
			t.Fatalf("leaders = %v", leaders)
		}
	}
	if leaderOf[5] != 4 || leaderOf[0] != 0 || leaderOf[11] != 8 {
		t.Fatalf("leaderOf = %v", leaderOf)
	}
}

func TestParamsString(t *testing.T) {
	if s := (Params{Seg: 1024, Fanout: 4}).String(); s != " seg=1024 fanout=4" {
		t.Errorf("Params.String() = %q", s)
	}
	if s := (Params{}).String(); s != "" {
		t.Errorf("empty Params.String() = %q", s)
	}
}

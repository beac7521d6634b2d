package tree

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// leafFeat is the feature of an fnode that is a leaf.
const leafFeat = math.MaxUint16

// fnode is one node of a Forest in 8 bytes. A leaf (feat leafFeat) has its
// value at leaves[key]. An internal node splits feature feat at the
// threshold thresh[feat][key], or, when key is negative, at the NaN
// threshold nans[feat][^key]. Nodes are in preorder: the left child is the
// next node and the right child is right nodes on.
type fnode struct {
	key   int32
	feat  uint16
	right uint16
}

// Forest is the read-only prediction layout of a tree ensemble. All its
// trees sit in one slice of 8-byte nodes, and an internal node holds no
// float64 threshold but its rank key in a per-feature table of the
// ensemble's distinct thresholds, ascending. Sum ranks the query once per
// feature, r_f = #{thresh[f][j] < x[f]}, with NaN ranked past every
// threshold, and routes every node by the integer test key >= r_f. Since
// the table ascends, x[f] <= thresh[f][key] exactly when no threshold from
// key on lies below x[f], that is when r_f <= key; a NaN query fails both
// tests. A NaN threshold, which no x[f] <= NaN satisfies, has a negative
// key and so always routes right. Leaf values stay float64.
//
// The zero Forest has no trees.
type Forest struct {
	nodes  []fnode     // every tree in preorder, one after the other
	roots  []int32     // each tree's first node
	leaves []float64   // leaf values, in node order
	thresh [][]float64 // per feature: its distinct non-NaN thresholds, ascending
	nans   [][]float64 // per feature: its distinct NaN thresholds
	inner  []float64   // each internal node's Value, in node order; only State reads it
}

// NewForest lays trees out for prediction; see ForestBuilder.Add for the
// checks each tree must pass.
func NewForest(trees [][]Node) (Forest, error) {
	total := 0
	for _, nodes := range trees {
		total += len(nodes)
	}
	var b ForestBuilder
	b.f.nodes = make([]fnode, 0, total)
	b.f.roots = make([]int32, 0, len(trees))
	// A tree of k nodes, each internal one with two children, has
	// (k+1)/2 leaves.
	b.f.leaves = make([]float64, 0, (total+len(trees))/2)
	b.f.inner = make([]float64, 0, (total-len(trees))/2)
	for _, nodes := range trees {
		if err := b.Add(nodes); err != nil {
			return Forest{}, err
		}
	}
	return b.Forest(), nil
}

// ForestBuilder lays trees out one at a time, so a fit never holds its
// trees in two layouts. The zero value holds no trees.
type ForestBuilder struct {
	f Forest
	// Until Forest sorts them, keys are provisional: the order in which
	// each feature's distinct thresholds (by bits) came.
	keys []map[uint64]int32
	vals [][]float64
}

// Add appends a tree. It checks the tree's structure: nodes in preorder,
// an internal node's left child the next node and its right child strictly
// further on and in range, a leaf with Feature -1 and zero threshold and
// links. So a corrupted snapshot can never make Sum loop forever or index
// out of bounds, and State returns trees exactly as added. A tree the
// layout cannot hold (a feature index of 65535 or more, a right child 65536
// or more nodes on) is an error too, never a wrong route.
func (b *ForestBuilder) Add(nodes []Node) error {
	t := len(b.f.roots)
	if len(nodes) == 0 {
		return fmt.Errorf("tree: tree %d: empty node list", t)
	}
	for i := range nodes {
		if err := checkNode(&nodes[i], i, len(nodes)); err != nil {
			return fmt.Errorf("tree: tree %d: %w", t, err)
		}
	}
	if len(b.f.nodes)+len(nodes) > math.MaxInt32 {
		return fmt.Errorf("tree: tree %d: the forest layout holds at most %d nodes", t, math.MaxInt32)
	}
	b.f.roots = append(b.f.roots, int32(len(b.f.nodes)))
	for i, n := range nodes {
		if n.Feature < 0 {
			b.f.nodes = append(b.f.nodes, fnode{key: int32(len(b.f.leaves)), feat: leafFeat})
			b.f.leaves = append(b.f.leaves, n.Value)
			continue
		}
		f := int(n.Feature)
		for len(b.keys) <= f {
			b.keys = append(b.keys, map[uint64]int32{})
			b.vals = append(b.vals, nil)
		}
		bits := math.Float64bits(n.Thresh)
		key, ok := b.keys[f][bits]
		if !ok {
			key = int32(len(b.vals[f]))
			b.keys[f][bits] = key
			b.vals[f] = append(b.vals[f], n.Thresh)
		}
		b.f.nodes = append(b.f.nodes, fnode{key: key, feat: uint16(f), right: uint16(int(n.Right) - i)})
		b.f.inner = append(b.f.inner, n.Value)
	}
	return nil
}

// Forest returns the trees added so far, laid out: each feature's distinct
// thresholds ascending (-0 before +0), its NaN thresholds apart, and every
// key the rank of its threshold. It empties the builder.
func (b *ForestBuilder) Forest() Forest {
	f, all := b.f, b.vals
	*b = ForestBuilder{}
	f.thresh, f.nans = make([][]float64, len(all)), make([][]float64, len(all))
	rank := make([][]int32, len(all)) // provisional key → key
	for j, vals := range all {
		seen := make([]int32, len(vals))
		for k := range seen {
			seen[k] = int32(k)
		}
		slices.SortFunc(seen, func(a, c int32) int { return cmpThresh(vals[a], vals[c]) })
		rank[j] = make([]int32, len(vals))
		for _, k := range seen {
			if v := vals[k]; math.IsNaN(v) {
				rank[j][k] = ^int32(len(f.nans[j]))
				f.nans[j] = append(f.nans[j], v)
			} else {
				rank[j][k] = int32(len(f.thresh[j]))
				f.thresh[j] = append(f.thresh[j], v)
			}
		}
	}
	for i := range f.nodes {
		if n := &f.nodes[i]; n.feat != leafFeat {
			n.key = rank[n.feat][n.key]
		}
	}
	return f
}

// cmpThresh orders distinct thresholds: non-NaN ones as the floats sort,
// -0 before +0, then NaNs by bits.
func cmpThresh(a, c float64) int {
	an, cn := math.IsNaN(a), math.IsNaN(c)
	switch {
	case an != cn:
		if an {
			return 1
		}
		return -1
	case an:
		return cmp.Compare(math.Float64bits(a), math.Float64bits(c))
	}
	return cmp.Compare(order(a), order(c))
}

// checkNode reports a node i of a tree of size nodes that the layout must
// not hold.
func checkNode(n *Node, i, size int) error {
	switch {
	case n.Feature < 0:
		if n.Feature != -1 || n.Left != 0 || n.Right != 0 || math.Float64bits(n.Thresh) != 0 {
			return fmt.Errorf("node %d is a leaf with feature %d, threshold %v and children (%d, %d); want -1, 0 and none",
				i, n.Feature, n.Thresh, n.Left, n.Right)
		}
	case n.Feature >= leafFeat:
		return fmt.Errorf("node %d splits feature %d; the forest layout holds features below %d", i, n.Feature, leafFeat)
	case int(n.Left) != i+1 || int(n.Left) >= size ||
		int(n.Right) <= i || int(n.Right) >= size:
		return fmt.Errorf("node %d has children (%d, %d) of %d nodes; want left %d and right in (%d, %d)",
			i, n.Left, n.Right, size, i+1, i, size)
	case int(n.Right)-i > math.MaxUint16:
		return fmt.Errorf("node %d has its right child %d nodes on; the forest layout holds at most %d",
			i, int(n.Right)-i, math.MaxUint16)
	}
	return nil
}

// order maps a non-NaN float64 to a uint64 that sorts as the float does,
// with -0 just below +0: a total order on the bit patterns.
func order(v float64) uint64 {
	b := math.Float64bits(v)
	if b>>63 == 1 {
		return ^b
	}
	return b | 1<<63
}

// Len returns the number of trees.
func (f *Forest) Len() int { return len(f.roots) }

// Sum returns s plus scale times each tree's leaf for x, added in tree
// order: s += scale*leaf, the float operations of summing the trees' own
// predictions one by one.
func (f *Forest) Sum(x []float64, s, scale float64) float64 {
	var buf [8]int32
	rank := buf[:]
	if len(f.thresh) > len(buf) {
		rank = make([]int32, len(f.thresh))
	}
	for j, t := range f.thresh {
		v := x[j]
		lo, hi := 0, len(t)
		if v != v { // NaN ranks past every threshold
			lo = hi
		}
		for lo < hi {
			m := int(uint(lo+hi) >> 1)
			if t[m] < v {
				lo = m + 1
			} else {
				hi = m
			}
		}
		rank[j] = int32(lo)
	}
	nodes, leaves := f.nodes, f.leaves
	for _, i := range f.roots {
		n := nodes[i]
		for n.feat != leafFeat {
			if n.key >= rank[n.feat] {
				i++
			} else {
				i += int32(n.right)
			}
			n = nodes[i]
		}
		s += scale * leaves[n.key]
	}
	return s
}

// State exports the trees as NewForest received them.
func (f *Forest) State() [][]Node {
	out := make([][]Node, len(f.roots))
	k := 0 // next internal node
	for t, root := range f.roots {
		end := len(f.nodes)
		if t+1 < len(f.roots) {
			end = int(f.roots[t+1])
		}
		nodes := make([]Node, end-int(root))
		for i := range nodes {
			n := f.nodes[int(root)+i]
			if n.feat == leafFeat {
				nodes[i] = Node{Feature: -1, Value: f.leaves[n.key]}
				continue
			}
			thresh := 0.0
			if n.key < 0 {
				thresh = f.nans[n.feat][^n.key]
			} else {
				thresh = f.thresh[n.feat][n.key]
			}
			nodes[i] = Node{Feature: int32(n.feat), Thresh: thresh,
				Left: int32(i + 1), Right: int32(i + int(n.right)), Value: f.inner[k]}
			k++
		}
		out[t] = nodes
	}
	return out
}

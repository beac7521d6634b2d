// Package tree implements CART-style regression trees, the shared substrate
// of the Random Forest and XGBoost learners. Trees can be grown either by
// variance reduction on raw targets (random forest) or by the second-order
// gain criterion on gradient/hessian statistics (gradient boosting).
package tree

import (
	"fmt"
	"math"
	"slices"

	"mpicollpred/internal/floats"
	"mpicollpred/internal/sim"
)

// Options controls tree growth.
type Options struct {
	MaxDepth int     // maximum depth; root is depth 0
	MinLeaf  int     // minimum samples per leaf (variance mode)
	Lambda   float64 // L2 regularization on leaf values (grad/hess mode)
	Gamma    float64 // minimum gain to split (grad/hess mode)
	MinChild float64 // minimum hessian sum per child (grad/hess mode)
	// MTry > 0 samples that many candidate features per node (random
	// forest decorrelation); 0 considers all features.
	MTry int
	// RNG drives feature subsampling when MTry > 0.
	RNG *sim.RNG
}

// node is one tree node in 16 bytes. Nodes are stored in preorder, so the
// left child of internal node i is always node i+1 and only the right child
// is stored. feature < 0 marks a leaf whose value is v; an internal node
// routes x[feature] <= v to i+1, anything else (NaN included) to right.
type node struct {
	v       float64
	feature int32
	right   int32
}

// Tree is a fitted regression tree.
type Tree struct {
	nodes []node
	// inner holds, in preorder, the value each internal node would predict
	// as a leaf. Predict never reads it; State exports it, so snapshots keep
	// carrying it.
	inner []float64
}

// Predict returns the tree's response for a feature vector.
func (t *Tree) Predict(x []float64) float64 {
	nodes := t.nodes
	i := 0
	for {
		n := &nodes[i]
		if n.feature < 0 {
			return n.v
		}
		if x[n.feature] <= n.v {
			i++
		} else {
			i = int(n.right)
		}
	}
}

// NumNodes returns the number of nodes, a rough model-complexity measure.
func (t *Tree) NumNodes() int { return len(t.nodes) }

// Node is the exported form of one tree node, used by the snapshot codec.
// Feature < 0 marks a leaf carrying Value; an internal node routes
// x[Feature] <= Thresh to Left, else Right, and its Value is what it would
// predict as a leaf.
type Node struct {
	Feature int32
	Thresh  float64
	Left    int32
	Right   int32
	Value   float64
}

// State exports the fitted tree as a flat node list in preorder, suitable
// for serialization. Leaves export zero Thresh, Left and Right.
func (t *Tree) State() []Node {
	out := make([]Node, len(t.nodes))
	k := 0
	for i, n := range t.nodes {
		if n.feature < 0 {
			out[i] = Node{Feature: n.feature, Value: n.v}
			continue
		}
		out[i] = Node{Feature: n.feature, Thresh: n.v,
			Left: int32(i + 1), Right: n.right, Value: t.inner[k]}
		k++
	}
	return out
}

// FromState rebuilds a tree from an exported node list, validating the
// structural invariants the builder guarantees — nodes are in preorder, so
// an internal node's left child is the next node and its right child points
// strictly forward and stays in range — so a corrupted snapshot can never
// make Predict loop forever or index out of bounds.
func FromState(nodes []Node) (*Tree, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("tree: empty node list")
	}
	t := &Tree{nodes: make([]node, len(nodes))}
	for i, n := range nodes {
		if n.Feature < 0 {
			t.nodes[i] = node{v: n.Value, feature: n.Feature}
			continue
		}
		if int(n.Left) != i+1 || int(n.Left) >= len(nodes) ||
			int(n.Right) <= i || int(n.Right) >= len(nodes) {
			return nil, fmt.Errorf("tree: node %d has children (%d, %d) of %d nodes; want left %d and right in (%d, %d)",
				i, n.Left, n.Right, len(nodes), i+1, i, len(nodes))
		}
		t.nodes[i] = node{v: n.Thresh, feature: n.Feature, right: n.Right}
		t.inner = append(t.inner, n.Value)
	}
	return t, nil
}

// presort fills rows, d+1 blocks of len(idx) rows, with idx's rows: block 0
// in idx order, and block 1+f sorted once by feature f, by value with NaN
// last and ties in idx order. That is the order a stable sort of any node's
// rows gives, so the split search reads a node's rows in sorted order off
// its segment of a block; the order of ties fixes the summation order of
// the split statistics.
func presort(x [][]float64, idx []int, rows []int32) {
	n := len(idx)
	for k, i := range idx {
		rows[k] = int32(i)
	}
	keys := make([]float64, n)
	for f := 0; n > 0 && f < len(x[0]); f++ {
		col := rows[(f+1)*n : (f+2)*n]
		for k, r := range rows[:n] {
			col[k] = int32(k)
			keys[k] = x[r][f]
		}
		// Positions break ties, so the order is total and pdqsort yields
		// the stable order.
		slices.SortFunc(col, func(a, b int32) int {
			va, vb := keys[a], keys[b]
			switch an, bn := math.IsNaN(va), math.IsNaN(vb); {
			case an != bn:
				if an {
					return 1
				}
				return -1
			case va < vb:
				return -1
			case va > vb:
				return 1
			}
			return int(a - b)
		})
		for k, pos := range col {
			col[k] = rows[pos]
		}
	}
}

// Sample is a training sample presorted for the split search. Every tree
// built from it partitions a copy of the presort, so the rounds of one
// boosting fit, which share x and idx, sort nothing and reuse one set of
// buffers. A Sample serves one build at a time.
type Sample struct {
	rows []int32 // the presort
	b    builder // its working copy
}

// NewSample presorts the rows idx of x.
func NewSample(x [][]float64, idx []int) *Sample {
	s := &Sample{b: newBuilder(x, len(idx))}
	s.rows = make([]int32, len(s.b.rows))
	presort(x, idx, s.rows)
	return s
}

// BuildGradHess grows a tree maximizing the XGBoost split gain for the
// gradient/hessian statistics over the sample. Leaf values are
// -G/(H+lambda). When leaf is non-nil, leaf[i] is set, for every row i of
// the sample, to the value of the leaf row i falls into: exactly what
// Predict(x[i]) returns, without walking the tree again.
func (s *Sample) BuildGradHess(g, h []float64, opts Options, leaf []float64) *Tree {
	if opts.MinChild <= 0 {
		opts.MinChild = 1e-12
	}
	b := &s.b
	copy(b.rows, s.rows)
	b.opts, b.grad, b.g, b.h, b.leaf = opts, true, g, h, leaf
	return b.build()
}

// builder carries the growth state of one tree. Its buffers are sized once
// and reused by every node.
type builder struct {
	x    [][]float64
	opts Options
	grad bool
	// grad/hess mode:
	g, h []float64
	// variance mode:
	y []float64
	// leaf, when non-nil, receives each row's leaf value.
	leaf []float64

	nodes []node
	inner []float64

	// rows holds the blocks of the n sample rows that presort fills. Each
	// split partitions the node's segment of every block stably, so a
	// node's rows stay contiguous in each block, in the block's order.
	n     int
	rows  []int32
	right []int32 // partition scratch for the right side
	left  []uint8 // per row of x: 1 if it goes left at this split, else 0
	feats []int   // candidate features
}

func newBuilder(x [][]float64, n int) builder {
	d := 0
	if len(x) > 0 {
		d = len(x[0])
	}
	buf := make([]int32, (d+2)*n)
	return builder{
		x:     x,
		n:     n,
		rows:  buf[:(d+1)*n],
		right: buf[(d+1)*n:],
		left:  make([]uint8, len(x)),
		feats: make([]int, d),
	}
}

// block returns the node rows [lo, hi) of block k.
func (b *builder) block(k, lo, hi int) []int32 { return b.rows[k*b.n+lo : k*b.n+hi] }

// BuildVariance grows a tree minimizing squared error of y over the sample
// index set idx (duplicates allowed, as in a bootstrap sample), presorting
// idx for this one tree.
func BuildVariance(x [][]float64, y []float64, idx []int, opts Options) *Tree {
	if opts.MinLeaf < 1 {
		opts.MinLeaf = 1
	}
	b := newBuilder(x, len(idx))
	presort(x, idx, b.rows)
	b.opts, b.y = opts, y
	return b.build()
}

func (b *builder) build() *Tree {
	b.nodes, b.inner = nil, nil
	b.grow(0, b.n, 0)
	return &Tree{nodes: b.nodes, inner: b.inner}
}

// grow appends the subtree over the node rows [lo, hi) in preorder.
func (b *builder) grow(lo, hi, depth int) {
	idx := b.block(0, lo, hi)
	me := len(b.nodes)
	value, feat, thresh, ok := b.split(lo, hi, depth)
	if !ok {
		b.nodes = append(b.nodes, node{v: value, feature: -1})
		if b.leaf != nil {
			for _, i := range idx {
				b.leaf[i] = value
			}
		}
		return
	}
	b.nodes = append(b.nodes, node{v: thresh, feature: int32(feat)})
	b.inner = append(b.inner, value)
	nl := b.partition(lo, hi, feat, thresh, depth)
	b.grow(lo, lo+nl, depth+1)
	b.nodes[me].right = int32(len(b.nodes))
	b.grow(lo+nl, hi, depth+1)
}

// split returns the node's leaf value and, unless the node must stay a leaf,
// its best (feature, threshold).
func (b *builder) split(lo, hi, depth int) (value float64, feat int, thresh float64, ok bool) {
	idx := b.block(0, lo, hi)
	if b.grad {
		var G, H float64
		for _, i := range idx {
			G += b.g[i]
			H += b.h[i]
		}
		value = -G / (H + b.opts.Lambda)
		if depth >= b.opts.MaxDepth || len(idx) < 2 {
			return value, 0, 0, false
		}
		feat, thresh, ok = b.bestSplitGrad(lo, hi, G, H)
		return value, feat, thresh, ok
	}

	var sum float64
	for _, i := range idx {
		sum += b.y[i]
	}
	value = sum / float64(len(idx))
	if depth >= b.opts.MaxDepth || len(idx) < 2*b.opts.MinLeaf {
		return value, 0, 0, false
	}
	feat, thresh, ok = b.bestSplitVar(lo, hi, sum)
	return value, feat, thresh, ok
}

// features returns the candidate feature set for one node.
func (b *builder) features() []int {
	perm := b.feats
	for i := range perm {
		perm[i] = i
	}
	d := len(perm)
	if b.opts.MTry <= 0 || b.opts.MTry >= d || b.opts.RNG == nil {
		return perm
	}
	// Partial Fisher-Yates over feature indices.
	for i := 0; i < b.opts.MTry; i++ {
		j := i + b.opts.RNG.Intn(d-i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm[:b.opts.MTry]
}

// bestSplitVar finds the variance-reduction-optimal (feature, threshold).
func (b *builder) bestSplitVar(lo, hi int, total float64) (int, float64, bool) {
	bestGain := 0.0
	bestFeat, bestThresh := -1, 0.0
	n := hi - lo
	parentScore := total * total / float64(n)
	for _, f := range b.features() {
		col := b.block(1+f, lo, hi)
		sumL := 0.0
		next := b.x[col[0]][f]
		for i := 0; i < n-1; i++ {
			v := next
			next = b.x[col[i+1]][f]
			sumL += b.y[col[i]]
			if floats.Exact(v, next) { // duplicate sort keys, copied not computed
				continue
			}
			if math.IsNaN(next) { // NaN rows stay right, where partition sends them
				break
			}
			nl, nr := i+1, n-i-1
			if nl < b.opts.MinLeaf || nr < b.opts.MinLeaf {
				continue
			}
			sumR := total - sumL
			gain := sumL*sumL/float64(nl) + sumR*sumR/float64(nr) - parentScore
			if gain > bestGain+1e-12 {
				bestGain = gain
				bestFeat = f
				bestThresh = (v + next) / 2
			}
		}
	}
	return bestFeat, bestThresh, bestFeat >= 0
}

// bestSplitGrad finds the XGBoost-gain-optimal (feature, threshold).
func (b *builder) bestSplitGrad(lo, hi int, G, H float64) (int, float64, bool) {
	lambda := b.opts.Lambda
	parent := G * G / (H + lambda)
	bestGain := b.opts.Gamma
	bestFeat, bestThresh := -1, 0.0
	n := hi - lo
	for _, f := range b.features() {
		col := b.block(1+f, lo, hi)
		gl, hl := 0.0, 0.0
		next := b.x[col[0]][f]
		for i := 0; i < n-1; i++ {
			v := next
			next = b.x[col[i+1]][f]
			gl += b.g[col[i]]
			hl += b.h[col[i]]
			if floats.Exact(v, next) { // duplicate sort keys, copied not computed
				continue
			}
			if math.IsNaN(next) { // NaN rows stay right, where partition sends them
				break
			}
			gr, hr := G-gl, H-hl
			if hl < b.opts.MinChild || hr < b.opts.MinChild {
				continue
			}
			gain := gl*gl/(hl+lambda) + gr*gr/(hr+lambda) - parent
			if gain > bestGain+1e-12 && !math.IsNaN(gain) {
				bestGain = gain
				bestFeat = f
				bestThresh = (v + next) / 2
			}
		}
	}
	return bestFeat, bestThresh, bestFeat >= 0
}

// partition reorders the node's rows stably in block 0 and, unless the
// children are at maximum depth and never search, in the feature blocks,
// so the rows with x[feat] <= thresh come first — the test Predict applies
// — and returns how many there are. Block 1+feat, sorted by feat with NaN
// last, already is in that order.
func (b *builder) partition(lo, hi, feat int, thresh float64, depth int) int {
	nl := 0
	for _, i := range b.block(0, lo, hi) {
		var l uint8
		if b.x[i][feat] <= thresh {
			l = 1
		}
		b.left[i] = l
		nl += int(l)
	}
	b.partitionRows(b.block(0, lo, hi))
	if depth+1 < b.opts.MaxDepth {
		for f := range b.feats {
			if f != feat {
				b.partitionRows(b.block(1+f, lo, hi))
			}
		}
	}
	return nl
}

// partitionRows moves the rows marked left to the front of rows, each side
// in its former order. It is branch-free: every row is written to both
// sides, and only the side it belongs to advances.
func (b *builder) partitionRows(rows []int32) {
	right := b.right[:len(rows)]
	k, j := 0, 0
	for _, i := range rows {
		l := int(b.left[i])
		rows[k] = i
		right[j] = i
		k += l
		j += 1 - l
	}
	copy(rows[k:], right[:j])
}

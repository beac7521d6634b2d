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

// pair is one sample in a per-feature split search: its feature value and
// its row.
type pair struct {
	v float64
	i int
}

// cmpPair orders pairs by value. It is negative exactly when a.v < b.v, and
// slices.SortFunc only ever tests cmp < 0, so the sort makes the same
// comparisons, and so the same permutation, as a sort.Sort whose Less is
// a.v < b.v: both are the pdqsort generated from one template. Ties and
// NaNs therefore land in the same order, which fixes the summation order of
// the split statistics.
func cmpPair(a, b pair) int {
	switch {
	case a.v < b.v:
		return -1
	case a.v > b.v:
		return 1
	}
	return 0
}

// builder carries the growth state of one tree. Its buffers are sized once
// per tree and reused by every node.
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

	idx   []int  // the tree's sample rows, partitioned in place node by node
	right []int  // partition scratch for the right side
	pairs []pair // split-search sort buffer
	feats []int  // candidate features
}

func newBuilder(x [][]float64, idx []int, opts Options) *builder {
	d := 0
	if len(x) > 0 {
		d = len(x[0])
	}
	return &builder{
		x:     x,
		opts:  opts,
		idx:   slices.Clone(idx),
		right: make([]int, 0, len(idx)),
		pairs: make([]pair, len(idx)),
		feats: make([]int, d),
	}
}

func (b *builder) tree() *Tree { return &Tree{nodes: b.nodes, inner: b.inner} }

// BuildVariance grows a tree minimizing squared error of y over the sample
// index set idx (duplicates allowed, as in a bootstrap sample).
func BuildVariance(x [][]float64, y []float64, idx []int, opts Options) *Tree {
	if opts.MinLeaf < 1 {
		opts.MinLeaf = 1
	}
	b := newBuilder(x, idx, opts)
	b.y = y
	b.grow(0, len(b.idx), 0)
	return b.tree()
}

// BuildGradHess grows a tree maximizing the XGBoost split gain for the
// gradient/hessian statistics over idx. Leaf values are -G/(H+lambda). When
// leaf is non-nil, leaf[i] is set, for every row i in idx, to the value of
// the leaf row i falls into: exactly what Predict(x[i]) returns, without
// walking the tree again.
func BuildGradHess(x [][]float64, g, h []float64, idx []int, opts Options, leaf []float64) *Tree {
	if opts.MinChild <= 0 {
		opts.MinChild = 1e-12
	}
	b := newBuilder(x, idx, opts)
	b.grad, b.g, b.h, b.leaf = true, g, h, leaf
	b.grow(0, len(b.idx), 0)
	return b.tree()
}

// grow appends the subtree over the rows b.idx[lo:hi] in preorder.
func (b *builder) grow(lo, hi, depth int) {
	idx := b.idx[lo:hi]
	me := len(b.nodes)
	value, feat, thresh, ok := b.split(idx, depth)
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
	nl := b.partition(idx, feat, thresh)
	b.grow(lo, lo+nl, depth+1)
	b.nodes[me].right = int32(len(b.nodes))
	b.grow(lo+nl, hi, depth+1)
}

// split returns the node's leaf value and, unless the node must stay a leaf,
// its best (feature, threshold).
func (b *builder) split(idx []int, depth int) (value float64, feat int, thresh float64, ok bool) {
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
		feat, thresh, ok = b.bestSplitGrad(idx, G, H)
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
	feat, thresh, ok = b.bestSplitVar(idx, sum)
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

// sortedBy fills the sort buffer with idx's rows keyed by feature f, in
// idx order, and sorts it by value.
func (b *builder) sortedBy(idx []int, f int) []pair {
	ps := b.pairs[:len(idx)]
	for k, s := range idx {
		ps[k] = pair{b.x[s][f], s}
	}
	slices.SortFunc(ps, cmpPair)
	return ps
}

// bestSplitVar finds the variance-reduction-optimal (feature, threshold).
func (b *builder) bestSplitVar(idx []int, total float64) (int, float64, bool) {
	bestGain := 0.0
	bestFeat, bestThresh := -1, 0.0
	n := len(idx)
	parentScore := total * total / float64(n)
	for _, f := range b.features() {
		ps := b.sortedBy(idx, f)
		sumL := 0.0
		for i := 0; i < n-1; i++ {
			sumL += b.y[ps[i].i]
			if floats.Exact(ps[i].v, ps[i+1].v) { // duplicate sort keys, copied not computed
				continue
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
				bestThresh = (ps[i].v + ps[i+1].v) / 2
			}
		}
	}
	return bestFeat, bestThresh, bestFeat >= 0
}

// bestSplitGrad finds the XGBoost-gain-optimal (feature, threshold).
func (b *builder) bestSplitGrad(idx []int, G, H float64) (int, float64, bool) {
	lambda := b.opts.Lambda
	parent := G * G / (H + lambda)
	bestGain := b.opts.Gamma
	bestFeat, bestThresh := -1, 0.0
	n := len(idx)
	for _, f := range b.features() {
		ps := b.sortedBy(idx, f)
		gl, hl := 0.0, 0.0
		for i := 0; i < n-1; i++ {
			gl += b.g[ps[i].i]
			hl += b.h[ps[i].i]
			if floats.Exact(ps[i].v, ps[i+1].v) { // duplicate sort keys, copied not computed
				continue
			}
			gr, hr := G-gl, H-hl
			if hl < b.opts.MinChild || hr < b.opts.MinChild {
				continue
			}
			gain := gl*gl/(hl+lambda) + gr*gr/(hr+lambda) - parent
			if gain > bestGain+1e-12 && !math.IsNaN(gain) {
				bestGain = gain
				bestFeat = f
				bestThresh = (ps[i].v + ps[i+1].v) / 2
			}
		}
	}
	return bestFeat, bestThresh, bestFeat >= 0
}

// partition reorders idx stably so the rows with x[feat] <= thresh come
// first — the test Predict applies — and returns how many there are.
func (b *builder) partition(idx []int, feat int, thresh float64) int {
	right := b.right[:0]
	nl := 0
	for _, i := range idx {
		if b.x[i][feat] <= thresh {
			idx[nl] = i
			nl++
		} else {
			right = append(right, i)
		}
	}
	copy(idx[nl:], right)
	return nl
}

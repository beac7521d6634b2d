// Package tree implements CART-style regression trees, the shared substrate
// of the Random Forest and XGBoost learners. Trees grow by one split search,
// the second-order gain on gradient/hessian statistics. Gradient boosting
// feeds it its loss's derivatives; the random forest's squared error is the
// same search with g = -y, h = 1 and lambda = 0, where the gain is the
// variance reduction and the leaf value the mean of y.
package tree

import (
	"math"
	"slices"

	"mpicollpred/internal/floats"
	"mpicollpred/internal/sim"
)

// Options controls tree growth. It is how xgb and rf pass their constants
// to the shared builder.
type Options struct {
	MaxDepth int // maximum depth; root is depth 0
	// MinLeaf, at least 1, stops the search at nodes of fewer than
	// 2*MinLeaf rows.
	MinLeaf  int
	Lambda   float64 // L2 regularization on leaf values
	MinChild float64 // minimum hessian sum per child
	// MTry > 0 samples that many candidate features per node (random
	// forest decorrelation); 0 considers all features.
	MTry int
	// RNG drives feature subsampling when MTry > 0.
	RNG *sim.RNG
}

// Node is one node of a tree in its exported form, used by the builders,
// the snapshot codec and NewForest. Nodes are in preorder, so an internal
// node's Left is always the next node. Feature -1 marks a leaf carrying
// Value (its Thresh, Left and Right are zero); an internal node routes
// x[Feature] <= Thresh to Left, anything else (NaN included) to Right, and
// its Value is what it would predict as a leaf.
type Node struct {
	Feature int32
	Thresh  float64
	Left    int32
	Right   int32
	Value   float64
}

// presort fills rows, d+1 blocks of len(idx) rows, with idx's rows: block 0
// in idx order, and block 1+f sorted once by feature f, by value with NaN
// last and ties in idx order. That is the order a stable sort of any node's
// rows gives, so the split search reads a node's rows in sorted order off
// its segment of a block; the order of ties fixes the summation order of
// the split statistics.
// keys, of len(idx), is scratch.
func presort(x [][]float64, idx []int, rows []int32, keys []float64) {
	n := len(idx)
	for k, i := range idx {
		rows[k] = int32(i)
	}
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
// buffers, and the bootstrap samples of one forest, re-presorted by
// Resample, reuse them too. A Sample serves one build at a time.
type Sample struct {
	rows []int32   // the presort
	keys []float64 // presort scratch
	b    builder   // its working copy
}

// NewSample presorts the rows idx of x.
func NewSample(x [][]float64, idx []int) *Sample {
	s := &Sample{b: newBuilder(x, len(idx))}
	s.rows = make([]int32, len(s.b.rows))
	s.keys = make([]float64, len(idx))
	s.Resample(idx)
	return s
}

// Resample presorts the rows idx of the sample's x in place of its rows,
// reusing its buffers; idx has as many rows as the sample was made with.
func (s *Sample) Resample(idx []int) { presort(s.b.x, idx, s.rows, s.keys) }

// BuildGradHess grows a tree maximizing the XGBoost split gain for the
// gradient/hessian statistics over the sample. Leaf values are
// -G/(H+lambda). When leaf is non-nil, leaf[i] is set, for every row i of
// the sample, to the value of the leaf row i falls into: exactly the leaf
// the tree routes x[i] to, without walking the tree again. The nodes
// returned are the Sample's buffer, valid until its next build.
func (s *Sample) BuildGradHess(g, h []float64, opts Options, leaf []float64) []Node {
	b := &s.b
	copy(b.rows, s.rows)
	b.opts, b.g, b.h, b.leaf = opts, g, h, leaf
	b.nodes = b.nodes[:0]
	b.grow(0, b.n, 0)
	return b.nodes
}

// builder carries the growth state of one tree. Its buffers are sized once
// and reused by every node.
type builder struct {
	x    [][]float64
	opts Options
	g, h []float64
	// leaf, when non-nil, receives each row's leaf value.
	leaf []float64

	nodes []Node

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

// grow appends the subtree over the node rows [lo, hi) in preorder.
func (b *builder) grow(lo, hi, depth int) {
	idx := b.block(0, lo, hi)
	me := len(b.nodes)
	value, feat, thresh, ok := b.split(lo, hi, depth)
	if !ok {
		b.nodes = append(b.nodes, Node{Feature: -1, Value: value})
		if b.leaf != nil {
			for _, i := range idx {
				b.leaf[i] = value
			}
		}
		return
	}
	b.nodes = append(b.nodes, Node{Feature: int32(feat), Thresh: thresh, Left: int32(me + 1), Value: value})
	nl := b.partition(lo, hi, feat, thresh, depth)
	b.grow(lo, lo+nl, depth+1)
	b.nodes[me].Right = int32(len(b.nodes))
	b.grow(lo+nl, hi, depth+1)
}

// split returns the node's leaf value and, unless the node must stay a leaf,
// its best (feature, threshold).
func (b *builder) split(lo, hi, depth int) (value float64, feat int, thresh float64, ok bool) {
	idx := b.block(0, lo, hi)
	var G, H float64
	for _, i := range idx {
		G += b.g[i]
		H += b.h[i]
	}
	value = -G / (H + b.opts.Lambda)
	// Only a node that searches draws candidate features, so this test
	// fixes how far a forest's RNG stream advances.
	if depth >= b.opts.MaxDepth || len(idx) < 2*b.opts.MinLeaf {
		return value, 0, 0, false
	}
	feat, thresh, ok = b.bestSplit(lo, hi, G, H)
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

// bestSplit finds the XGBoost-gain-optimal (feature, threshold).
func (b *builder) bestSplit(lo, hi int, G, H float64) (int, float64, bool) {
	lambda := b.opts.Lambda
	parent := G * G / (H + lambda)
	bestGain := 0.0
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
			if gain > bestGain+1e-12 { // false for a NaN gain
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
// so the rows with x[feat] <= thresh come first — the test a tree routes
// by — and returns how many there are. Block 1+feat, sorted by feat with NaN
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

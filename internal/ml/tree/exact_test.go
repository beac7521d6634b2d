package tree

import (
	"bytes"
	"math"
	"slices"
	"sort"
	"testing"

	"mpicollpred/internal/sim"
)

// sortInput draws one value sequence of length n over at most distinct
// levels: random with heavy ties, NaNs, ascending, descending, sawtooth,
// organ pipe, and nearly sorted with and without a NaN.
func sortInput(rng *sim.RNG, shape, n, distinct int) []float64 {
	vals := make([]float64, n)
	for i := range vals {
		switch shape {
		case 0:
			vals[i] = float64(rng.Intn(distinct))
		case 1:
			vals[i] = float64(rng.Intn(distinct))
			if rng.Intn(8) == 0 {
				vals[i] = math.NaN()
			}
		case 2:
			vals[i] = float64(i * distinct / n)
		case 3:
			vals[i] = float64((n - i) * distinct / n)
		case 4:
			vals[i] = float64(i % distinct)
		case 5:
			vals[i] = float64(min(i, n-i) % distinct)
		default:
			vals[i] = float64(i * distinct / n)
		}
	}
	if shape >= 6 {
		for k := 0; k < 1+n/50; k++ {
			a, b := rng.Intn(n), rng.Intn(n)
			vals[a], vals[b] = vals[b], vals[a]
		}
		if shape == 7 {
			vals[rng.Intn(n)] = math.NaN()
		}
	}
	return vals
}

// refBuilder is the split search's reference: it grows a tree the short
// way, stable-sorting each node's rows by every candidate feature from
// scratch (NaN last), and emits the exported node list directly. Its
// variance mode, the textbook squared-error search on y, is the oracle
// for the random forest's trees, which the builder grows at g = -y, h = 1.
type refBuilder struct {
	x       [][]float64
	y, g, h []float64 // y in variance mode, g and h in grad/hess mode
	opts    Options
	nodes   []Node
}

func (r *refBuilder) grow(rows []int, depth int) {
	grad := r.g != nil
	var value, total, H float64
	for _, i := range rows {
		if grad {
			total += r.g[i]
			H += r.h[i]
		} else {
			total += r.y[i]
		}
	}
	n := len(rows)
	if grad {
		value = -total / (H + r.opts.Lambda)
	} else {
		value = total / float64(n)
	}
	me := len(r.nodes)
	r.nodes = append(r.nodes, Node{Feature: -1, Value: value})
	if depth >= r.opts.MaxDepth || n < 2*r.opts.MinLeaf {
		return
	}

	d := len(r.x[0])
	feats := make([]int, d)
	for i := range feats {
		feats[i] = i
	}
	if r.opts.MTry > 0 && r.opts.MTry < d && r.opts.RNG != nil {
		for i := 0; i < r.opts.MTry; i++ {
			j := i + r.opts.RNG.Intn(d-i)
			feats[i], feats[j] = feats[j], feats[i]
		}
		feats = feats[:r.opts.MTry]
	}
	lambda := r.opts.Lambda
	best, bestFeat, bestThresh := 0.0, -1, 0.0
	for _, f := range feats {
		s := slices.Clone(rows)
		sort.SliceStable(s, func(a, b int) bool {
			va, vb := r.x[s[a]][f], r.x[s[b]][f]
			return !math.IsNaN(va) && (math.IsNaN(vb) || va < vb)
		})
		var sl, hl float64
		for i := 0; i < n-1; i++ {
			v, next := r.x[s[i]][f], r.x[s[i+1]][f]
			var gain float64
			if grad {
				sl += r.g[s[i]]
				hl += r.h[s[i]]
			} else {
				sl += r.y[s[i]]
			}
			if math.IsNaN(next) {
				break
			}
			if v == next {
				continue
			}
			if grad {
				sr, hr := total-sl, H-hl
				if hl < r.opts.MinChild || hr < r.opts.MinChild {
					continue
				}
				gain = sl*sl/(hl+lambda) + sr*sr/(hr+lambda) - total*total/(H+lambda)
			} else {
				nl, nr := i+1, n-i-1
				if nl < r.opts.MinLeaf || nr < r.opts.MinLeaf {
					continue
				}
				sr := total - sl
				gain = sl*sl/float64(nl) + sr*sr/float64(nr) - total*total/float64(n)
			}
			if gain > best+1e-12 && !math.IsNaN(gain) {
				best, bestFeat, bestThresh = gain, f, (v+next)/2
			}
		}
	}
	if bestFeat < 0 {
		return
	}

	var left, right []int
	for _, i := range rows {
		if r.x[i][bestFeat] <= bestThresh {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	r.nodes[me] = Node{Feature: int32(bestFeat), Thresh: bestThresh, Left: int32(me + 1), Value: value}
	r.grow(left, depth+1)
	r.nodes[me].Right = int32(len(r.nodes))
	r.grow(right, depth+1)
}

// TestSplitSearchMatchesReference: the presorted builder grows, bit for bit,
// the trees of the reference builder in both its modes, over heavy ties,
// NaNs, sorted runs and bootstrap-duplicated rows, with feature subsampling
// on and off: on g and h as given, and on g = -y, h = 1 as rf grows them.
// No split ever has a NaN threshold.
func TestSplitSearchMatchesReference(t *testing.T) {
	rng := sim.NewRNG(7)
	const d = 3
	for trial := 0; trial < 600; trial++ {
		n := 2 + rng.Intn(300)
		if trial%40 == 0 {
			n = 2 + rng.Intn(3000)
		}
		x := make([][]float64, n)
		for i := range x {
			x[i] = make([]float64, d)
		}
		for f := 0; f < d; f++ {
			for i, v := range sortInput(rng, rng.Intn(8), n, 1+rng.Intn(40)) {
				x[i][f] = v
			}
		}
		y := make([]float64, n)
		g := make([]float64, n)
		h := make([]float64, n)
		for i := range y {
			y[i] = x[i][0]*0.5 + rng.Norm()
			if math.IsNaN(y[i]) {
				y[i] = rng.Norm()
			}
			g[i] = y[i] - 1
			h[i] = 0.5 + rng.Float64()
		}
		idx := allIdx(n)
		if trial%2 == 1 {
			for i := range idx {
				idx[i] = rng.Intn(n) // bootstrap: repeated rows
			}
		}
		mtry := 0
		if trial%4 >= 2 {
			mtry = 2
		}
		seed := rng.Uint64()
		opts := func() Options {
			return Options{MaxDepth: 1 + trial%9, MinLeaf: 1 + trial%3, Lambda: 1,
				MinChild: 1e-6, MTry: mtry, RNG: sim.NewRNG(seed)}
		}

		for _, grad := range []bool{false, true} {
			ref := &refBuilder{x: x, opts: opts()}
			var got []Node
			if grad {
				// A Sample's second build must not see the first's
				// partitions.
				ref.g, ref.h = g, h
				s := NewSample(x, idx)
				s.BuildGradHess(h, g, opts(), nil)
				got = s.BuildGradHess(g, h, opts(), nil)
			} else {
				ref.y = y
				got = squaredError(x, y, idx, opts())
			}
			ref.grow(slices.Clone(idx), 0)
			state := got
			if len(state) != len(ref.nodes) {
				t.Fatalf("trial %d (n %d, grad %v): %d nodes, reference %d", trial, n, grad, len(state), len(ref.nodes))
			}
			for i, nd := range state {
				w := ref.nodes[i]
				if nd.Feature != w.Feature || nd.Left != w.Left || nd.Right != w.Right ||
					math.Float64bits(nd.Thresh) != math.Float64bits(w.Thresh) ||
					math.Float64bits(nd.Value) != math.Float64bits(w.Value) {
					t.Fatalf("trial %d (n %d, grad %v): node %d is %+v, reference %+v", trial, n, grad, i, nd, w)
				}
				if nd.Feature >= 0 && math.IsNaN(nd.Thresh) {
					t.Fatalf("trial %d (n %d, grad %v): node %d splits at NaN", trial, n, grad, i)
				}
			}
		}
	}
}

// refPredict walks an exported node list through its explicit Left/Right
// links by the float64 test x[Feature] <= Thresh: the routing a Forest's
// rank keys must reproduce.
func refPredict(nodes []Node, x []float64) float64 {
	i := int32(0)
	for {
		n := nodes[i]
		if n.Feature < 0 {
			return n.Value
		}
		if x[n.Feature] <= n.Thresh {
			i = n.Left
		} else {
			i = n.Right
		}
	}
}

// specialData is a training set whose first feature straddles zero, so a
// split lands at exactly 0, with NaN features planted throughout.
func specialData() (x [][]float64, g, h []float64) {
	rng := sim.NewRNG(5)
	for i := 0; i < 240; i++ {
		a := float64(rng.Intn(3) - 1) // -1, 0, 1
		b := float64(rng.Intn(5))
		g = append(g, -(3*a + b/2 + rng.Norm()*0.1))
		if rng.Intn(10) == 0 {
			b = math.NaN()
		}
		x = append(x, []float64{a, b})
		h = append(h, 1)
	}
	return x, g, h
}

// TestResampleMatchesFreshSample: a Sample presorted for one bootstrap
// sample and re-presorted for another grows, bit for bit, the trees and
// leaf assignments of a fresh Sample of the second, over heavy ties, NaNs
// and repeated rows, as rf.Fit relies on for its one Sample per fit.
func TestResampleMatchesFreshSample(t *testing.T) {
	rng := sim.NewRNG(11)
	const d = 3
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(400)
		x := make([][]float64, n)
		for i := range x {
			x[i] = make([]float64, d)
		}
		for f := 0; f < d; f++ {
			for i, v := range sortInput(rng, rng.Intn(8), n, 1+rng.Intn(20)) {
				x[i][f] = v
			}
		}
		g, h := make([]float64, n), make([]float64, n)
		for i := range g {
			g[i], h[i] = rng.Norm(), 1
		}
		bootstrap := func() []int {
			idx := make([]int, n)
			for i := range idx {
				idx[i] = rng.Intn(n)
			}
			return idx
		}
		a, b := bootstrap(), bootstrap()
		seed := rng.Uint64()
		opts := func() Options {
			return Options{MaxDepth: 1 + trial%12, MinLeaf: 1 + trial%3, MinChild: float64(1 + trial%3),
				MTry: 2, RNG: sim.NewRNG(seed)}
		}

		s := NewSample(x, a)
		s.BuildGradHess(g, h, opts(), nil)
		s.Resample(b)
		leaf, want := make([]float64, n), make([]float64, n)
		got := s.BuildGradHess(g, h, opts(), leaf)
		ref := NewSample(x, b).BuildGradHess(g, h, opts(), want)
		if !bytes.Equal(stateBytes(t, [][]Node{got}), stateBytes(t, [][]Node{ref})) {
			t.Fatalf("trial %d (n %d): resampled tree differs from a fresh sample's", trial, n)
		}
		for i := range leaf {
			if math.Float64bits(leaf[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d (n %d): row %d leaf %v, fresh sample %v", trial, n, i, leaf[i], want[i])
			}
		}
	}
}

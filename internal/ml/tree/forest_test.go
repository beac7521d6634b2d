package tree

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"testing"

	"mpicollpred/internal/sim"
)

// goldenSurface is the xgb and rf golden training set: n rows whose three
// features take only a handful of values, with NaNs planted in the second
// when withNaN is set.
func goldenSurface(n int, seed uint64, withNaN bool) ([][]float64, []float64) {
	rng := sim.NewRNG(seed)
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		a := float64(rng.Intn(7))
		b := float64(rng.Intn(4)) * 0.5
		c := float64(int(1) << rng.Intn(12))
		if withNaN && rng.Intn(17) == 0 {
			b = math.NaN()
		}
		x[i] = []float64{a, b, c}
		y[i] = 1e-6 * (1 + a*a/4 + c/64) * rng.LogNormal(0.2)
	}
	return x, y
}

// continuous draws n rows of d uniform features and a smooth noisy target,
// so deep trees grow wide.
func continuous(n, d int, seed uint64) ([][]float64, []float64) {
	rng := sim.NewRNG(seed)
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = make([]float64, d)
		for f := range x[i] {
			x[i][f] = rng.Float64()*4 - 2
		}
		y[i] = math.Sin(3*x[i][0]) + x[i][d-1]*x[i][d-1] + rng.Norm()*0.1
	}
	return x, y
}

// boosted grows rounds squared-loss boosting trees on y, the way xgb.Fit
// grows its rounds: one Sample, each row's score moved by eta times its
// leaf.
func boosted(x [][]float64, y []float64, rounds, depth int, eta float64) [][]Node {
	s := NewSample(x, allIdx(len(x)))
	score := make([]float64, len(x))
	g, h, leaf := make([]float64, len(x)), make([]float64, len(x)), make([]float64, len(x))
	var trees [][]Node
	for r := 0; r < rounds; r++ {
		for i := range g {
			g[i], h[i] = score[i]-y[i], 1
		}
		t := s.BuildGradHess(g, h, Options{MaxDepth: depth, Lambda: 1, MinChild: 1e-6}, leaf)
		trees = append(trees, slices.Clone(t))
		for i := range score {
			score[i] += eta * leaf[i]
		}
	}
	return trees
}

// bagged grows n variance trees on bootstrap samples with feature
// subsampling, the way rf.Fit does.
func bagged(x [][]float64, y []float64, n, depth, minLeaf int) [][]Node {
	rng := sim.NewRNG(9)
	trees := make([][]Node, n)
	idx := make([]int, len(x))
	for t := range trees {
		for i := range idx {
			idx[i] = rng.Intn(len(x))
		}
		trees[t] = BuildVariance(x, y, idx, Options{MaxDepth: depth, MinLeaf: minLeaf, MTry: 2, RNG: rng})
	}
	return trees
}

// refSum is the oracle for Forest.Sum: base plus scale times each tree's
// refPredict, added in tree order.
func refSum(trees [][]Node, x []float64, base, scale float64) float64 {
	for _, t := range trees {
		base += scale * refPredict(t, x)
	}
	return base
}

// queries draws n query vectors whose features come from each feature's
// pool: NaN, ±0, ±Inf, every threshold and its float neighbours, and the
// training values.
func queries(rng *sim.RNG, trees [][]Node, x [][]float64, n int) [][]float64 {
	d := len(x[0])
	pool := make([][]float64, d)
	for f := range pool {
		pool[f] = []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1)}
		for _, row := range x {
			pool[f] = append(pool[f], row[f])
		}
	}
	for _, t := range trees {
		for _, nd := range t {
			if nd.Feature >= 0 {
				v := nd.Thresh
				pool[nd.Feature] = append(pool[nd.Feature], v,
					math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1)))
			}
		}
	}
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, d)
		for f := range out[i] {
			out[i][f] = pool[f][rng.Intn(len(pool[f]))]
		}
	}
	return out
}

// stateBytes encodes trees bit for bit.
func stateBytes(t *testing.T, trees [][]Node) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, nodes := range trees {
		if err := binary.Write(&b, binary.LittleEndian, int64(len(nodes))); err != nil {
			t.Fatal(err)
		}
		if err := binary.Write(&b, binary.LittleEndian, nodes); err != nil {
			t.Fatal(err)
		}
	}
	return b.Bytes()
}

// checkForest lays trees out and requires that State → NewForest → State
// round-trips byte-equal, and that Sum equals refSum bit for bit on the
// training rows and on n drawn queries.
func checkForest(t *testing.T, name string, trees [][]Node, x [][]float64, base, scale float64, n int) {
	t.Helper()
	f, err := NewForest(trees)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want := stateBytes(t, trees)
	if !bytes.Equal(stateBytes(t, f.State()), want) {
		t.Fatalf("%s: State differs from the trees laid out", name)
	}
	g, err := NewForest(f.State())
	if err != nil {
		t.Fatalf("%s: NewForest(State()): %v", name, err)
	}
	if !bytes.Equal(stateBytes(t, g.State()), want) {
		t.Fatalf("%s: State → NewForest → State is not byte-equal", name)
	}
	qs := append(queries(sim.NewRNG(3), trees, x, n), x...)
	for _, q := range qs {
		got, ref := f.Sum(q, base, scale), refSum(trees, q, base, scale)
		if math.Float64bits(got) != math.Float64bits(ref) {
			t.Fatalf("%s: Sum(%v) = %v, reference %v", name, q, got, ref)
		}
	}
}

// TestForestMatchesReference: on the golden training sets, with and without
// NaN features, boosted and bagged ensembles predict through the forest
// exactly as through the trees' own float64 tests, for queries at, between
// and beyond every threshold, NaN, ±0 and ±Inf included.
func TestForestMatchesReference(t *testing.T) {
	for _, withNaN := range []bool{false, true} {
		x, y := goldenSurface(400, 11, withNaN)
		logy := make([]float64, len(y))
		for i, v := range y {
			logy[i] = math.Log(v)
		}
		checkForest(t, "boosted", boosted(x, logy, 200, 6, 0.3), x, -12, 0.3, 4000)
		checkForest(t, "bagged", bagged(x, logy, 100, 20, 2), x, 0, 1, 4000)
	}
	x, g, h := specialData()
	tr := NewSample(x, allIdx(len(x))).BuildGradHess(g, h, Options{MaxDepth: 6, Lambda: 1}, nil)
	checkForest(t, "special", [][]Node{tr}, x, 0, 1, 4000)

	// More features than Sum ranks on its stack.
	x, y := continuous(300, 11, 4)
	checkForest(t, "wide", boosted(x, y, 20, 6, 0.3), x, 0, 0.3, 2000)
}

// TestDeepTreeForest: a depth-20 tree on 3000 distinct rows has right
// children hundreds of nodes on, which the layout holds and routes exactly.
func TestDeepTreeForest(t *testing.T) {
	x, y := continuous(3000, 3, 8)
	trees := bagged(x, y, 3, 20, 1)
	far := 0
	for _, nodes := range trees {
		for i, nd := range nodes {
			if nd.Feature >= 0 {
				far = max(far, int(nd.Right)-i)
			}
		}
	}
	if far <= 255 {
		t.Fatalf("deepest right offset %d; the test needs one wider than a byte", far)
	}
	checkForest(t, "deep", trees, x, 0, 1, 2000)
}

// TestSpecialValuesRouteAsBefore: NaN, ±0 and ±Inf features take the same
// path through the forest's rank keys as through the float64 tests, NaN
// always to the right; hand-built trees with a NaN threshold (x <= NaN
// never holds, so it always routes right), a -0 threshold beside a +0 one,
// and infinite thresholds round-trip and route exactly too.
func TestSpecialValuesRouteAsBefore(t *testing.T) {
	x, g, h := specialData()
	tr := NewSample(x, allIdx(len(x))).BuildGradHess(g, h, Options{MaxDepth: 6, Lambda: 1}, nil)
	if len(tr) < 7 {
		t.Fatalf("tree too small to exercise routing: %d nodes", len(tr))
	}
	specials := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1),
		-1, -0.5, 0.5, 1, 1.5, 2, 3.5, 4, 5}
	for _, n := range tr {
		if n.Feature >= 0 {
			specials = append(specials, n.Thresh, math.Nextafter(n.Thresh, math.Inf(1)))
		}
	}
	f, err := NewForest([][]Node{tr})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range specials {
		for _, b := range specials {
			q := []float64{a, b}
			if got, want := f.Sum(q, 0, 1), refSum([][]Node{tr}, q, 0, 1); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("Sum(%v) = %v, exported links give %v", q, got, want)
			}
		}
	}

	leaf := func(v float64) Node { return Node{Feature: -1, Value: v} }
	split := func(th float64, right int32) Node {
		return Node{Feature: 0, Thresh: th, Left: 1, Right: right, Value: 9}
	}
	stump := func(th float64) []Node { return []Node{split(th, 2), leaf(1), leaf(2)} }
	negZero, payloadNaN := math.Copysign(0, -1), math.Float64frombits(0x7ff8000000000123)
	negNaN := math.Float64frombits(0xfff8000000000000)
	for _, c := range []struct {
		th   float64
		want []float64 // leaf for -0, 0, NaN, -Inf, +Inf, -1, 1
	}{
		{0, []float64{1, 1, 2, 1, 2, 1, 2}},
		{negZero, []float64{1, 1, 2, 1, 2, 1, 2}},
		{math.NaN(), []float64{2, 2, 2, 2, 2, 2, 2}},
		{payloadNaN, []float64{2, 2, 2, 2, 2, 2, 2}},
		{math.Inf(1), []float64{1, 1, 2, 1, 1, 1, 1}},
		{math.Inf(-1), []float64{2, 2, 2, 1, 2, 2, 2}},
	} {
		f, err := NewForest([][]Node{stump(c.th)})
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range []float64{negZero, 0, math.NaN(), math.Inf(-1), math.Inf(1), -1, 1} {
			if got := f.Sum([]float64{v}, 0, 1); got != c.want[k] {
				t.Errorf("threshold %v: x=%v routed to leaf %v, want %v", c.th, v, got, c.want[k])
			}
		}
	}

	// One model whose feature table holds -0 and +0, two NaNs and both
	// infinities, in several trees.
	var trees [][]Node
	for _, th := range []float64{0, negZero, payloadNaN, 1, math.Inf(1), negNaN, math.Inf(-1), math.NaN(), negZero} {
		trees = append(trees, stump(th))
	}
	trees = append(trees, []Node{leaf(negZero)},
		[]Node{{Feature: 0, Thresh: negZero, Left: 1, Right: 4, Value: 9},
			{Feature: 0, Thresh: payloadNaN, Left: 2, Right: 3, Value: 8}, leaf(3), leaf(4), leaf(5)})
	pool := [][]float64{{negZero}, {0}, {math.NaN()}, {math.Inf(1)}, {math.Inf(-1)}, {1}, {-1},
		{math.Nextafter(0, 1)}, {math.Nextafter(0, -1)}}
	checkForest(t, "hand-built", trees, pool, 0.5, 1, 200)
}

// TestLeafAssignmentEqualsPredict: the leaf values Sample.BuildGradHess
// records while partitioning equal, bit for bit, the leaf each training row
// routes to, through the float64 tests and through the forest — the
// identity xgb's score update relies on.
func TestLeafAssignmentEqualsPredict(t *testing.T) {
	x, g, h := specialData()
	leaf := make([]float64, len(x))
	for i := range leaf {
		leaf[i] = math.NaN()
	}
	tr := NewSample(x, allIdx(len(x))).BuildGradHess(g, h, Options{MaxDepth: 6, Lambda: 1}, leaf)
	f, err := NewForest([][]Node{tr})
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if got, want := leaf[i], refPredict(tr, x[i]); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("row %d (%v): leaf %v, refPredict %v", i, x[i], got, want)
		}
		if got, want := f.Sum(x[i], 0, 1), 0+leaf[i]; math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("row %d (%v): forest %v, leaf %v", i, x[i], got, want)
		}
	}
}

// TestNewForestRejectsMalformedTrees: every structural defect, and every
// tree the layout cannot hold, is an error, never a panic, a tree Sum could
// loop in or a wrong route.
func TestNewForestRejectsMalformedTrees(t *testing.T) {
	leaf := Node{Feature: -1, Value: 1}
	split := func(left, right int32) Node {
		return Node{Feature: 0, Thresh: 0.5, Left: left, Right: right, Value: 3}
	}
	// far is a root whose right child is right nodes on, all other nodes
	// leaves.
	far := func(right int32) []Node {
		nodes := make([]Node, right+1)
		nodes[0] = split(1, right)
		for i := range nodes[1:] {
			nodes[1+i] = Node{Feature: -1, Value: float64(i)}
		}
		return nodes
	}
	cases := []struct {
		name  string
		nodes []Node
		want  string
	}{
		{"empty", nil, "empty"},
		{"left skips ahead", []Node{split(2, 2), leaf, leaf}, "children"},
		{"left backward", []Node{split(1, 2), split(0, 2), leaf}, "children"},
		{"left self", []Node{split(0, 1), leaf}, "children"},
		{"right backward", []Node{split(1, 3), split(2, 0), leaf, leaf}, "children"},
		{"right self", []Node{split(1, 2), split(2, 1), leaf}, "children"},
		{"right out of range", []Node{split(1, 3), leaf, leaf}, "children"},
		{"right negative", []Node{split(1, -1), leaf}, "children"},
		{"last node internal", []Node{split(1, 2), leaf, split(3, 3)}, "children"},
		{"leaf feature -2", []Node{{Feature: -2, Value: 1}}, "leaf"},
		{"leaf with threshold", []Node{{Feature: -1, Thresh: 0.5, Value: 1}}, "leaf"},
		{"leaf with -0 threshold", []Node{{Feature: -1, Thresh: math.Copysign(0, -1), Value: 1}}, "leaf"},
		{"leaf with children", []Node{split(1, 2), {Feature: -1, Left: 2, Value: 1}, leaf}, "leaf"},
		{"feature too wide", []Node{{Feature: math.MaxUint16, Thresh: 0.5, Left: 1, Right: 2}, leaf, leaf}, "feature"},
		{"right too far", far(math.MaxUint16 + 1), "right child"},
	}
	for _, c := range cases {
		_, err := NewForest([][]Node{{leaf}, c.nodes})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: NewForest error %v, want one naming %q", c.name, err, c.want)
		}
	}

	good := [][]Node{{split(1, 2), leaf, {Feature: -1, Value: 2}}, far(math.MaxUint16)}
	f, err := NewForest(good)
	if err != nil {
		t.Fatalf("well-formed trees rejected: %v", err)
	}
	if !bytes.Equal(stateBytes(t, f.State()), stateBytes(t, good)) {
		t.Errorf("State after NewForest = %v, want %v", f.State(), good)
	}
	// Right of 0.5: leaf 2 of the first tree, the last leaf of the second.
	if got, want := f.Sum([]float64{1}, 0, 1), 2+float64(math.MaxUint16-1); got != want {
		t.Errorf("Sum over the farthest right child = %v, want %v", got, want)
	}
	var empty Forest
	if f, err := NewForest(nil); err != nil || f.Len() != 0 || f.Sum(nil, 1.5, 2) != 1.5 || empty.Sum(nil, 1.5, 2) != 1.5 {
		t.Errorf("a forest of no trees: (%v, %v)", f.Len(), err)
	}
}

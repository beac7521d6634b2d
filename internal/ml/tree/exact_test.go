package tree

import (
	"math"
	"slices"
	"sort"
	"testing"

	"mpicollpred/internal/sim"
)

// featSorter is the split search's former sort: sort.Sort over parallel
// value and row slices. It stays here as the reference the pair sort must
// reproduce permutation for permutation.
type featSorter struct {
	vals []float64
	idx  []int
}

func (s *featSorter) Len() int           { return len(s.idx) }
func (s *featSorter) Less(i, j int) bool { return s.vals[i] < s.vals[j] }
func (s *featSorter) Swap(i, j int) {
	s.vals[i], s.vals[j] = s.vals[j], s.vals[i]
	s.idx[i], s.idx[j] = s.idx[j], s.idx[i]
}

// sortInput draws one value sequence of length n over at most distinct
// levels, shaped to reach every branch of pdqsort: random with heavy ties,
// NaNs, ascending, descending, sawtooth, organ pipe, and nearly sorted.
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

// TestPairSortMatchesFeatSorter: slices.SortFunc with cmpPair must permute
// exactly as sort.Sort with featSorter did — ties and NaNs included — since
// the within-tie order fixes the summation order of the split statistics.
func TestPairSortMatchesFeatSorter(t *testing.T) {
	rng := sim.NewRNG(7)
	for trial := 0; trial < 4000; trial++ {
		n := 1 + rng.Intn(300)
		if trial%40 == 0 {
			n = 1 + rng.Intn(3000)
		}
		vals := sortInput(rng, trial%8, n, 1+rng.Intn(40))
		rows := make([]int, n)
		for i := range rows {
			rows[i] = rng.Intn(n) // bootstrap-like: repeated rows
		}

		ref := &featSorter{vals: slices.Clone(vals), idx: slices.Clone(rows)}
		sort.Sort(ref)
		ps := make([]pair, n)
		for i := range ps {
			ps[i] = pair{vals[i], rows[i]}
		}
		slices.SortFunc(ps, cmpPair)

		for i := range ps {
			if ps[i].i != ref.idx[i] || math.Float64bits(ps[i].v) != math.Float64bits(ref.vals[i]) {
				t.Fatalf("trial %d (shape %d, n %d): position %d holds (%v, row %d), reference (%v, row %d)",
					trial, trial%8, n, i, ps[i].v, ps[i].i, ref.vals[i], ref.idx[i])
			}
		}
	}
}

// refPredict walks an exported node list through its explicit Left/Right
// links, the routing of the former 32-byte node.
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

// TestSpecialValuesRouteAsBefore: NaN, ±0 and ±Inf features take the same
// path through the 16-byte nodes as through the exported Left/Right links,
// NaN always to the right.
func TestSpecialValuesRouteAsBefore(t *testing.T) {
	x, g, h := specialData()
	tr := BuildGradHess(x, g, h, allIdx(len(x)), Options{MaxDepth: 6, Lambda: 1}, nil)
	state := tr.State()
	if tr.NumNodes() < 7 {
		t.Fatalf("tree too small to exercise routing: %d nodes", tr.NumNodes())
	}
	specials := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1),
		-1, -0.5, 0.5, 1, 1.5, 2, 3.5, 4, 5}
	for _, n := range state {
		if n.Feature >= 0 {
			specials = append(specials, n.Thresh, math.Nextafter(n.Thresh, math.Inf(1)))
		}
	}
	for _, a := range specials {
		for _, b := range specials {
			q := []float64{a, b}
			if got, want := tr.Predict(q), refPredict(state, q); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("Predict(%v) = %v, exported links give %v", q, got, want)
			}
		}
	}

	// A root split on feature 0 at exactly 0 sends both zeros left and NaN
	// right.
	root := Tree{nodes: []node{{v: 0, feature: 0, right: 2}, {v: 1, feature: -1}, {v: 2, feature: -1}}}
	for _, c := range []struct {
		x    float64
		want float64
	}{{math.Copysign(0, -1), 1}, {0, 1}, {math.NaN(), 2}, {math.Inf(-1), 1}, {math.Inf(1), 2}} {
		if got := root.Predict([]float64{c.x}); got != c.want {
			t.Errorf("x=%v routed to leaf %v, want %v", c.x, got, c.want)
		}
	}
}

// TestLeafAssignmentEqualsPredict: the leaf values BuildGradHess records
// while partitioning equal, bit for bit, what Predict returns for each
// training row — the identity xgb's score update relies on.
func TestLeafAssignmentEqualsPredict(t *testing.T) {
	x, g, h := specialData()
	leaf := make([]float64, len(x))
	for i := range leaf {
		leaf[i] = math.NaN()
	}
	tr := BuildGradHess(x, g, h, allIdx(len(x)), Options{MaxDepth: 6, Lambda: 1}, leaf)
	for i := range x {
		if got, want := leaf[i], tr.Predict(x[i]); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("row %d (%v): leaf %v, Predict %v", i, x[i], got, want)
		}
	}
}

// TestFromStateRejectsMalformedTrees: every structural defect is an error,
// never a panic or a tree Predict could loop in.
func TestFromStateRejectsMalformedTrees(t *testing.T) {
	leaf := Node{Feature: -1, Value: 1}
	split := func(left, right int32) Node {
		return Node{Feature: 0, Thresh: 0.5, Left: left, Right: right, Value: 3}
	}
	cases := []struct {
		name  string
		nodes []Node
	}{
		{"empty", nil},
		{"left skips ahead", []Node{split(2, 2), leaf, leaf}},
		{"left backward", []Node{split(1, 2), split(0, 2), leaf}},
		{"left self", []Node{split(0, 1), leaf}},
		{"right backward", []Node{split(1, 3), split(2, 0), leaf, leaf}},
		{"right self", []Node{split(1, 2), split(2, 1), leaf}},
		{"right out of range", []Node{split(1, 3), leaf, leaf}},
		{"right negative", []Node{split(1, -1), leaf}},
		{"last node internal", []Node{split(1, 2), leaf, split(3, 3)}},
	}
	for _, c := range cases {
		tr, err := FromState(c.nodes)
		if err == nil || tr != nil {
			t.Errorf("%s: FromState = (%v, %v), want an error", c.name, tr, err)
		}
	}

	good := []Node{split(1, 2), leaf, {Feature: -1, Value: 2}}
	tr, err := FromState(good)
	if err != nil {
		t.Fatalf("well-formed tree rejected: %v", err)
	}
	if !slices.Equal(tr.State(), good) {
		t.Errorf("State after FromState = %v, want %v", tr.State(), good)
	}
}

package gam

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"mpicollpred/internal/sim"
)

// featureSurface draws n instances on a grid like the Table IV training
// sets and maps each through the selectors' feature vector (log2 message
// size, nodes, ppn, log2 processes), with a log-normal running time that
// grows with message size and process count. constPPN fixes ppn at 1, which
// makes the third feature constant and its smooth inactive.
func featureSurface(n int, seed uint64, constPPN bool) ([][]float64, []float64) {
	rng := sim.NewRNG(seed)
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		nodes := 2 + rng.Intn(15)
		ppn := 1
		if !constPPN {
			ppn = 1 << rng.Intn(6)
		}
		msize := int64(1) << rng.Intn(23)
		p := float64(nodes * ppn)
		lm := math.Log2(float64(msize) + 1)
		x[i] = []float64{lm, float64(nodes), float64(ppn), math.Log2(p)}
		y[i] = 2e-6 * (1 + math.Log2(p)) * (1 + float64(msize)/65536) * rng.LogNormal(0.1)
	}
	return x, y
}

// stateDigest hashes every bit of a fitted GAM: the hyper-parameter
// constants, clamping ranges, active smooths, coefficients, the selected
// lambda and its EDF.
func stateDigest(s State) string {
	h := sha256.New()
	put := func(v any) {
		if err := binary.Write(h, binary.LittleEndian, v); err != nil {
			panic(err)
		}
	}
	put([]int64{NumBasis, MaxIter, int64(len(Lambdas()))})
	put(Lambdas())
	put(int64(len(s.Lo)))
	put(s.Lo)
	put(s.Hi)
	put(s.Active)
	put(int64(len(s.Beta)))
	put(s.Beta)
	put([]float64{s.Lambda, s.EDF})
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenStateDigests pins the exact fitted state of the penalized IRLS:
// any change to the design, the penalty, the normal matrix, its
// factorization or the GCV choice that moves a single bit fails here. The
// short set has fewer rows (20) than design columns (33), so only the
// penalty makes its normal matrix definite.
func TestGoldenStateDigests(t *testing.T) {
	cases := []struct {
		name     string
		n        int
		constPPN bool
		want     string
	}{
		{"features", 400, false, "7737710ddff85fd2ecdc57006afeb484a8e2d1b426e4178380b7f37d6190fb18"},
		{"constant-feature", 400, true, "4a6b4ead3cebee90242bfb6340950b58e9432010c45c833761bee1112762e0e2"},
		{"short", 20, false, "b8e4fe4f14a33d222c4b6187f59b03fe48306507bd655ecc487da93a5a6677ca"},
	}
	for _, c := range cases {
		x, y := featureSurface(c.n, 7, c.constPPN)
		r := New()
		if err := r.Fit(x, y); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := stateDigest(r.State()); got != c.want {
			t.Errorf("%s: state digest %s, want %s", c.name, got, c.want)
		}
	}
}

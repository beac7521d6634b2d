package xgb

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"mpicollpred/internal/sim"
)

// dupSurface draws n rows whose features take only a handful of distinct
// values, so nearly every split search scans long runs of ties; withNaN
// also plants NaN features. The order of ties and NaNs in the presorted
// columns decides the summation order of the split statistics, so these
// sets pin the split search down to the bit.
func dupSurface(n int, seed uint64, withNaN bool) ([][]float64, []float64) {
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

// stateDigest hashes every bit of a fitted ensemble: the hyper-parameter
// constants, base score and each tree's exported node list.
func stateDigest(s State) string {
	h := sha256.New()
	put := func(v any) {
		if err := binary.Write(h, binary.LittleEndian, v); err != nil {
			panic(err)
		}
	}
	put([]float64{Eta, Lambda, MinChild, TweedieRho, s.Base})
	put([]int64{Rounds, MaxDepth, int64(len(s.Trees))})
	h.Write([]byte(Tweedie))
	for _, nodes := range s.Trees {
		put(int64(len(nodes)))
		put(nodes)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenStateDigests pins the exact fitted state of the tree kernels:
// any change to split search, partitioning, leaf values or the score update
// that moves a single bit of any tree fails here.
func TestGoldenStateDigests(t *testing.T) {
	cases := []struct {
		name    string
		withNaN bool
		want    string
	}{
		{"ties-tweedie", false, "ebf1ccc5b40cbb928289ade272fae22a2b14ecedc05be7e117fa74627564f619"},
		{"ties-nan-tweedie", true, "0caf62dd71e8fb7ca6b53e9d9a659e3d34dfe26579b7dba8f4c4515afd142c1e"},
	}
	for _, c := range cases {
		x, y := dupSurface(400, 11, c.withNaN)
		r := New()
		if err := r.Fit(x, y); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := stateDigest(r.State()); got != c.want {
			t.Errorf("%s: state digest %s, want %s", c.name, got, c.want)
		}
	}
}

// predictionDigest hashes the bits of r's prediction at every query of a
// grid around and beyond the golden sets' feature values, NaN, ±0 and ±Inf
// included.
func predictionDigest(r *Regressor) string {
	specials := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1)}
	as := append([]float64{-1, 0.5, 1, 2, 3, 3.5, 5, 6, 7}, specials...)
	bs := append([]float64{-0.5, 0.25, 0.5, 0.75, 1, 1.5, 2}, specials...)
	cs := append([]float64{1, 2, 3, 48, 64, 100, 1024, 2048, 4096}, specials...)
	h := sha256.New()
	for _, a := range as {
		for _, b := range bs {
			for _, c := range cs {
				if err := binary.Write(h, binary.LittleEndian, r.Predict([]float64{a, b, c})); err != nil {
					panic(err)
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenPredictionDigests pins every bit of the golden fits'
// predictions on a query grid, so a change to the prediction layout that
// moves a single prediction fails here even when the fitted state holds.
func TestGoldenPredictionDigests(t *testing.T) {
	cases := []struct {
		name    string
		withNaN bool
		want    string
	}{
		{"ties-tweedie", false, "b87373ded2054ee6b70bd748583c3da6fd3b179b400bd29a5d693c82a1ec0ece"},
		{"ties-nan-tweedie", true, "85121f184694e537b2428bc6c79073fee14d93c06913ac949014ba132ccd9b3b"},
	}
	for _, c := range cases {
		x, y := dupSurface(400, 11, c.withNaN)
		r := New()
		if err := r.Fit(x, y); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := predictionDigest(r); got != c.want {
			t.Errorf("%s: prediction digest %s, want %s", c.name, got, c.want)
		}
	}
}

package rf

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
// also plants NaN features.
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

// stateDigest hashes every bit of a fitted forest: the hyper-parameter
// constants and each tree's exported node list.
func stateDigest(s State) string {
	h := sha256.New()
	put := func(v any) {
		if err := binary.Write(h, binary.LittleEndian, v); err != nil {
			panic(err)
		}
	}
	put([]int64{NumTrees, MaxDepth, MinLeaf, MTry, Seed, int64(len(s.Trees))})
	for _, nodes := range s.Trees {
		put(int64(len(nodes)))
		put(nodes)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenStateDigests pins the exact fitted state of the variance-mode
// tree kernel under bootstrap samples (duplicate rows) and feature
// subsampling.
func TestGoldenStateDigests(t *testing.T) {
	cases := []struct {
		name    string
		withNaN bool
		want    string
	}{
		{"ties-default", false, "138e328cb827a8e568fe3a1d66a6cee74738f2d0b027e536e47a4a39d27e8a9f"},
		{"ties-nan-default", true, "3c47682032f9b27f16f6f7baad87948c6404781025c1ff9326ec8ee1b2a776ae"},
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
		{"ties-default", false, "6ad8e44990ecb96f7bc12d9bdb6d3df8a7dd5e80a7e40ea25e4a57fefb23eda8"},
		{"ties-nan-default", true, "3c525affe9bbc7b7445e60ec52692fa3e3a9e24e7bdc9774f492099ea0efcbe9"},
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
